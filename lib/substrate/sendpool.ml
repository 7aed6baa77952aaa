(** Ring of reusable, registered send buffers. The real substrate
    transmits from user/library buffers that are pinned once and hit the
    EMP translation cache afterwards (§2); modelling each message as a
    fresh region would charge a pin system call per send. A slot is
    reused once its previous send has been fully acknowledged. *)

open Uls_host
module E = Uls_emp.Endpoint

type state =
  | Idle
  | Claimed  (* handed out for a send that is not posted yet *)
  | Sent of E.send

type slot = {
  region : Memory.region;
  mutable state : state;
}

type t = {
  emp : E.t;
  slots : slot array;
  mutable next : int;
}

let create node emp ~slots ~size =
  let mk _ =
    let region = Memory.alloc size in
    (* Ring buffers are registered at pool-creation (connection setup)
       time, so steady-state sends always hit the translation cache. *)
    Os.prepin (Node.os node) region;
    { region; state = Idle }
  in
  { emp; slots = Array.init slots mk; next = 0 }

let iter_regions t f = Array.iter (fun slot -> f slot.region) t.slots

let slot_in_flight slot =
  match slot.state with
  | Sent s -> (not (E.send_done s)) && not (E.send_failed s)
  | Idle | Claimed -> false

let in_flight t =
  Array.fold_left
    (fun acc slot -> if slot_in_flight slot then acc + 1 else acc)
    0 t.slots

let busy t =
  Array.exists
    (fun slot ->
      match slot.state with Claimed -> true | Idle | Sent _ -> slot_in_flight slot)
    t.slots

let slot_size t = Memory.length t.slots.(0).region
let slots t = Array.length t.slots

(* Claim the next ring slot, blocking only when the ring wraps onto a
   send that is still in flight. *)
let claim_slot t =
  let slot = t.slots.(t.next) in
  t.next <- (t.next + 1) mod Array.length t.slots;
  (match slot.state with
  | Sent s when not (E.send_done s) -> (
    (* A failed earlier send (peer closed mid-retransmission) still
       frees the slot. *)
    try E.wait_send t.emp s with E.Send_failed _ -> ())
  | _ -> ());
  slot.state <- Claimed;
  slot

(* Claim a slot and copy [data] in. The blit is free of simulated cost:
   it models the application reusing its own (already pinned) buffer,
   not an extra protocol copy. *)
let fill ~caller t data =
  if String.length data > slot_size t then
    invalid_arg (caller ^ ": message too large");
  let slot = claim_slot t in
  Memory.blit_from_string data slot.region ~off:0;
  slot

let stage t ~dst ~tag data =
  let slot = fill ~caller:"Sendpool.stage" t data in
  (slot, (dst, tag, slot.region, 0, String.length data))

let record slot s = slot.state <- Sent s

let post t staged =
  let slots, specs = List.split staged in
  List.iter2 record slots (E.post_sendv t.emp specs)

let send t ~dst ~tag data =
  let slot = fill ~caller:"Sendpool.send" t data in
  let s =
    E.post_send t.emp ~dst ~tag slot.region ~off:0
      ~len:(String.length data)
  in
  record slot s;
  s
