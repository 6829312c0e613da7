(* The benchmark's output checks pass on honest runs and fire when one
   register cell, one header or one hop count is corrupted. *)

module Compile = Mp5_domino.Compile
module Store = Mp5_banzai.Store
module Switch = Mp5_core.Switch
module Sim = Mp5_core.Sim
module Topology = Mp5_fabric.Topology
module Routing = Mp5_fabric.Routing
module Traffic = Mp5_fabric.Traffic
module Fabric = Mp5_fabric.Fabric
module Psource = Mp5_workload.Packet_source

let ok what r = Alcotest.(check (result unit string)) what (Ok ()) r

let fires what = function
  | Ok () -> Alcotest.failf "%s: the check passed a corrupted output" what
  | Error _ -> ()

(* The sequencer writes a per-group sequence number into every packet, so
   both its registers and its headers carry state. *)
let sequencer_run () =
  let sw = Switch.create_exn (List.assoc "sequencer" Mp5_apps.Sources.all_named) in
  let flows = Mp5_workload.Tracegen.flows ~seed:7 ~n_packets:2_000 ~k:4 ~concurrency:64 () in
  let trace = Mp5_apps.Traces.trace_for "sequencer" flows in
  let r = Switch.run ~k:4 sw trace in
  let regs, hdrs = Mp5_fuzz.Interp.interp sw.Switch.compiled.Compile.env trace in
  (r, regs, hdrs)

let test_registers () =
  let r, regs, _ = sequencer_run () in
  ok "honest run" (Checks.registers ~expect:regs r.Sim.store);
  let store = Store.copy r.Sim.store in
  Store.set store ~reg:0 ~idx:3 (Store.get store ~reg:0 ~idx:3 + 1);
  fires "one register cell" (Checks.registers ~expect:regs store)

let test_headers () =
  let r, _, hdrs = sequencer_run () in
  let outs = r.Sim.headers_out in
  ok "honest run" (Checks.headers ~expect:hdrs outs);
  let corrupt =
    List.mapi
      (fun i (pid, h) ->
        if i = 100 then begin
          let h = Array.copy h in
          h.(Array.length h - 1) <- h.(Array.length h - 1) + 1;
          (pid, h)
        end
        else (pid, h))
      outs
  in
  fires "one header" (Checks.headers ~expect:hdrs corrupt);
  fires "one packet missing" (Checks.headers ~expect:hdrs (List.tl outs));
  fires "one packet twice" (Checks.headers ~expect:hdrs (List.hd outs :: List.tl (List.rev outs)))

let test_switch_hops () =
  (* two leaves, two spines, two hosts a leaf: h0,h1 on s0 and h2,h3 on s1 *)
  let topo = Topology.leaf_spine ~leaves:2 ~spines:2 ~hosts_per_leaf:2 ~delay:1 in
  let table = Checks.switch_hops topo in
  Alcotest.(check int) "same leaf" 1 table.(0).(1);
  Alcotest.(check int) "across the spines" 3 table.(0).(2);
  Alcotest.(check int) "symmetric" table.(2).(0) table.(0).(2)

let test_hop_total () =
  let topo = Topology.fat_tree ~k:4 ~delay:1 in
  let sw = Switch.create_exn (Mp5_apps.Sources.sensitivity_program ~stateful:2 ~reg_size:64) in
  let n_fields = (Switch.config sw).Mp5_banzai.Config.n_user_fields in
  let spec = { (Traffic.default_spec topo) with Traffic.n_packets = 2_000; n_fields; seed = 3 } in
  let params =
    {
      Fabric.fp_sim = Sim.default_params ~k:2;
      fp_topo = topo;
      fp_policy = Routing.shortest_paths topo;
      fp_plan = Mp5_fault.Linkplan.empty;
    }
  in
  let r =
    match Fabric.run ~dst:(Traffic.dst_of_input spec) params sw.Switch.prog (Traffic.source spec) with
    | Fabric.Completed r -> r
    | Fabric.Suspended _ -> Alcotest.fail "suspended without a budget"
  in
  let src = Traffic.source spec in
  let rec pairs acc =
    match Psource.next src with
    | None -> acc
    | Some p -> pairs ((p.Mp5_banzai.Machine.port, Traffic.dst_of_input spec p) :: acc)
  in
  let expect = Checks.hop_total topo (pairs []) in
  let got = r.Fabric.fr_hops_hist.Fabric.Hist.sum in
  ok "honest run" (Checks.equal_int "switches traversed" ~expect got);
  fires "one hop" (Checks.equal_int "switches traversed" ~expect (got + 1))

let () =
  Alcotest.run "perfbench-checks"
    [
      ( "checks",
        [
          Alcotest.test_case "register cell" `Quick test_registers;
          Alcotest.test_case "header" `Quick test_headers;
          Alcotest.test_case "bfs switch hops" `Quick test_switch_hops;
          Alcotest.test_case "hop total" `Quick test_hop_total;
        ] );
    ]
