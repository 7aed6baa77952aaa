(** A {!Group} over an array of EMP endpoints, one per rank.

    Every rank calls {!create} with the {e same} endpoint array (rank
    [i]'s endpoint at index [i]) and its own [rank]. Message staging uses
    a pool of prepinned power-of-two regions, so steady-state collectives
    pay no pin system calls; the endpoint's unexpected queue is
    provisioned to absorb cross-rank races at operation entry.

    With [~nic:true] (the default) the group registers the collective
    frame classifier on this rank's NIC and offers NIC-offloaded barrier
    and broadcast ({!Group.algorithm.Nic_forward}): the host posts
    forward-on-match descriptors, rings one doorbell, and sleeps until
    the NIC DMAs the completion up. *)

val create :
  ?nic:bool ->
  Uls_emp.Endpoint.t array ->
  rank:int ->
  Group.t
(** Provisions this rank's unexpected queue with 16 slots of 4096 B.
    [nic:false] builds a host-only group (Nic_forward then falls back to
    the binomial tree). *)
