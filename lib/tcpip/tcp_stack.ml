(** Assemble the kernel TCP implementation of the stack-agnostic sockets
    API ({!Uls_api.Sockets_api.stack}) over one kernel per node. *)

type t = {
  kernels : Kernel.t array;
}

let create ?(config = Config.default) ~nodes ~nics () =
  if Array.length nodes <> Array.length nics then
    invalid_arg "Tcp_stack.create: nodes/nics mismatch";
  let kernels =
    Array.map2 (fun node nic -> Kernel.create node nic ~config) nodes nics
  in
  { kernels }

let kernel t i = t.kernels.(i)

let stream_of_conn (c : Tcp_conn.t) : Uls_api.Sockets_api.stream =
  {
    send = (fun data -> Tcp_conn.app_send c data);
    recv = (fun n -> Tcp_conn.app_recv c n);
    close = (fun () -> Tcp_conn.app_close c);
    readable = (fun () -> Tcp_conn.app_readable c);
    watch = (fun f -> Tcp_conn.add_watcher c f);
    peer = (fun () -> Tcp_conn.remote c);
    local = (fun () -> Tcp_conn.local c);
  }

let api t : Uls_api.Sockets_api.stack =
  let kernel i = t.kernels.(i) in
  let listen ~node ~port ~backlog =
    let k = kernel node in
    let l = Kernel.listen k ~port ~backlog in
    {
      Uls_api.Sockets_api.accept =
        (fun () ->
          let c = Kernel.accept k l in
          (stream_of_conn c, Tcp_conn.remote c));
      try_accept =
        (fun () ->
          (* The kernel queues only fully established connections, so a
             non-empty queue makes the blocking accept immediate. *)
          if Kernel.acceptable l then
            let c = Kernel.accept k l in
            Some (stream_of_conn c, Tcp_conn.remote c)
          else None);
      acceptable = (fun () -> Kernel.acceptable l);
      watch_accept = (fun f -> Kernel.add_accept_watcher l f);
      pending = (fun () -> Kernel.listener_pending l);
      close_listener = (fun () -> Kernel.close_listener k l);
    }
  in
  let connect ~node addr = stream_of_conn (Kernel.connect (kernel node) addr) in
  let select =
    Uls_api.Sockets_api.select ~nodes:(Array.length t.kernels)
      ~activity:(fun i -> Kernel.activity (kernel i))
      ~metrics:(fun i -> Kernel.metrics (kernel i))
  in
  { Uls_api.Sockets_api.stack_name = "kernel-tcp"; listen; connect; select }
