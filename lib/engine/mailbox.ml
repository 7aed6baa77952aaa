type 'a t = {
  sim : Sim.t;
  uid : int;  (* sync identity for happens-before tracking *)
  label : string;
  queue : 'a Queue.t;
  nonempty : Cond.t;
}

let create ?(label = "mailbox") sim =
  { sim; uid = Sim.new_sync_uid sim; label; queue = Queue.create ();
    nonempty = Cond.create ~label sim }

let send t v =
  Sim.note_op t.sim Op_mailbox_send t.uid t.label;
  Queue.push v t.queue;
  Cond.signal t.nonempty

(* A waiter woken by [send] may find the queue already drained by another
   fiber that called [recv] in between; both loops re-check. *)

let rec recv t =
  match Queue.take_opt t.queue with
  | Some v ->
    Sim.note_op t.sim Op_mailbox_recv t.uid t.label;
    v
  | None ->
    Cond.wait t.nonempty;
    recv t
