(* End-of-run leak scans. The in-line invariant checks (Invariant.check
   calls inside EMP and the substrate) catch violations at the offending
   transition; these scans catch what only shows at quiescence — state
   that should have been reclaimed and wasn't. Each finding is also
   recorded in the simulation's Invariant monitor so it lands in the
   fingerprint. *)

open Uls_engine

type finding = {
  f_check : string;  (* invariant name, e.g. "emp.desc_conservation" *)
  f_node : int;
  f_detail : string;
}

let record inv f =
  Invariant.fail inv ~name:f.f_check
    (Printf.sprintf "node %d: %s" f.f_node f.f_detail)

let scan ?(conns = []) cluster =
  let sim = Uls_bench.Cluster.sim cluster in
  let inv = Invariant.for_sim sim in
  let findings = ref [] in
  let add f =
    findings := f :: !findings;
    record inv f
  in
  (* Descriptor conservation: every receive descriptor ever posted is
     either completed (delivered, cancelled, or torn down by reset) or
     still live on the match list. A posted count exceeding
     completed + live means a descriptor vanished without completion —
     the user-level analogue of a kernel skb leak. *)
  List.iter
    (fun (node, ep) ->
      let d = Uls_emp.Endpoint.descriptor_stats ep in
      let balance =
        d.Uls_emp.Endpoint.descs_completed + d.Uls_emp.Endpoint.descs_live
      in
      if d.Uls_emp.Endpoint.descs_posted <> balance then
        add
          {
            f_check = "emp.desc_conservation";
            f_node = node;
            f_detail =
              Printf.sprintf "posted=%d but completed=%d + live=%d"
                d.Uls_emp.Endpoint.descs_posted
                d.Uls_emp.Endpoint.descs_completed
                d.Uls_emp.Endpoint.descs_live;
          })
    (Uls_bench.Cluster.endpoints cluster);
  (* Closed-connection descriptor leak: close/reset must unpost every
     receive slot of the connection (the 2N+3 reclamation of §5.3). A
     still-posted slot on a closed connection can never be reclaimed. *)
  List.iter
    (fun (node, conn) ->
      if Uls_substrate.Conn.is_closed conn || Uls_substrate.Conn.is_reset conn
      then begin
        let leaked = Uls_substrate.Conn.leaked_slots conn in
        if leaked > 0 then
          add
            {
              f_check = "sub.desc_leak";
              f_node = node;
              f_detail =
                Printf.sprintf "conn %d closed with %d receive slots still posted"
                  (Uls_substrate.Conn.id conn) leaked;
            }
      end)
    conns;
  (* Send-pool occupancy: at quiescence every ring-buffer send is either
     acknowledged or abandoned (failed). A slot still "in flight" holds
     a registered memory region that no completion will ever release. *)
  List.iter
    (fun (node, sub) ->
      List.iter
        (fun pool ->
          let stuck = Uls_substrate.Sendpool.in_flight pool in
          if stuck > 0 then
            add
              {
                f_check = "sub.sendpool_leak";
                f_node = node;
                f_detail =
                  Printf.sprintf
                    "%d send-pool slots still in flight at quiescence" stuck;
              })
        (Uls_substrate.Substrate.send_pools sub))
    (Uls_bench.Cluster.substrates cluster);
  List.rev !findings

let render findings =
  match findings with
  | [] -> "sanitizers: clean"
  | fs ->
    String.concat "\n"
      (List.map
         (fun f -> Printf.sprintf "LEAK [%s] node=%d %s" f.f_check f.f_node f.f_detail)
         fs)
