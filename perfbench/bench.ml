(* The simulator's benchmark: four workloads driven through the library's
   public entry points, in one process with one OCaml domain (no pool, no
   team).

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   A run sets the workload up, then runs whole rounds of its operations
   until [--seconds] have passed, setting it up again [setup_reps] times
   after each round, then checks every operation's output against a
   computation made apart from the simulator (checks.ml).  Times are
   taken relative to a reference computation run next to them
   ([Hostref]), so that the host's slow phases cancel.  The last line of
   standard output is one JSON object: correct, attempted, failed and
   the metrics.

   With [--trace 0] the metrics are the end-to-end ones.  With
   [--trace 1] untraced and traced rounds alternate; traced rounds time a
   span around each public call into a layer, and the run then makes the
   per-layer legs and reports the per-layer metrics.  The spans stay in
   memory and are written once, at the end, to
   perfbench/out/spans-WORKLOAD-SEED.json. *)

module Compile = Mp5_domino.Compile
module Config = Mp5_banzai.Config
module Machine = Mp5_banzai.Machine
module Store = Mp5_banzai.Store
module Transform = Mp5_core.Transform
module Kernel = Mp5_core.Kernel
module Switch = Mp5_core.Switch
module Sim = Mp5_core.Sim
module Equiv = Mp5_core.Equiv
module Metrics = Mp5_obs.Metrics
module Prof = Mp5_obs.Prof
module Monitor = Mp5_fault.Monitor
module Tracegen = Mp5_workload.Tracegen
module Psource = Mp5_workload.Packet_source
module Sources = Mp5_apps.Sources
module Traces = Mp5_apps.Traces
module Interp = Mp5_fuzz.Interp
module Progen = Mp5_fuzz.Progen
module Topology = Mp5_fabric.Topology
module Routing = Mp5_fabric.Routing
module Traffic = Mp5_fabric.Traffic
module Fabric = Mp5_fabric.Fabric
module Hashing = Mp5_util.Hashing

let now () = Int64.to_int (Monotonic_clock.now ())
let fi = float_of_int

(* Words allocated so far: minor allocations plus those made directly in
   the major heap. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let time f =
  let t0 = now () in
  let r = f () in
  (r, fi (now () - t0))

let least l = List.fold_left Float.min infinity l

(* The least of [reps] timings of [f], in ns.  Other tenants of a shared
   host only ever slow a measurement down (on a shared 2-core virtual
   machine, by up to 1.7x in phases of 5 to 15 s), so the least timing of
   deterministic work estimates its undisturbed cost. *)
let best_time reps f = least (List.init reps (fun _ -> snd (time f)))

(* ---------- host speed reference ----------

   Least times alone do not steady a throughput on a shared host: a slow
   phase can outlast a whole run.  So each operation is also timed
   against a fixed computation of the benchmark's own, sampled just
   before it and just after it (each sample at most [every_ns] old),
   taking the mean of the two.  The host slows both alike, so the
   operation's time over the reference's cancels most of the phase.  The reference does what the simulator's hot paths do: random
   reads and writes over a 4 MB table, and short-lived small allocations
   that keep the minor collector, and the major slices it runs, busy.
   The table lives outside the OCaml heap, so it does not show in
   [heap_peak_mb]. *)
module Hostref = struct
  open Bigarray

  let table = Array1.create int c_layout (1 lsl 19)
  let () = Array1.fill table 0
  let steps = 150_000
  let every_ns = 50_000_000

  let next x = ((x * 0x5DEECE66D) + 11) land 0x3FFFFFFFFFFF
  let cell x = (x lsr 13) land (Array1.dim table - 1)

  (* random read-modify-writes, allocating nothing *)
  let scan () =
    let x = ref 0x2545F491 and sum = ref 0 in
    for i = 1 to steps do
      x := next !x;
      let j = cell !x in
      let v = table.{j} + i in
      table.{j} <- v;
      if !x land 3 = 0 then sum := !sum + (v lsr 3) else sum := !sum lxor j
    done;
    !sum

  (* the same walk, consing a quarter of the cells it visits into a list
     that is folded and dropped every 64 steps *)
  let cons () =
    let x = ref 0x2545F491 and acc = ref [] and sum = ref 0 in
    for i = 1 to steps do
      x := next !x;
      let j = cell !x in
      let v = table.{j} + i in
      table.{j} <- v;
      if !x land 3 = 0 then acc := (j, v) :: !acc;
      if i land 63 = 0 then begin
        List.iter (fun (a, b) -> sum := !sum + a + b) !acc;
        acc := []
      end
    done;
    !sum

  (* ns: the median of 5 timings *)
  let sample () =
    median (List.init 5 (fun _ -> snd (time (fun () -> ignore (Sys.opaque_identity (scan () + cons ()))))))

  (* The reference's least time on the development host, rounded (see
     README.md); it turns an operation's time over the reference's back
     into seconds. *)
  let nominal_ns = 2_200_000.
end

(* FNV-1a folds over an output, so that rounds compare their outputs
   without keeping or copying them. *)
let fnv_start = (Hashing.fnv_offset_hi, Hashing.fnv_offset_lo)
let feed (h, l) x = Hashing.feed_int_halves h l x
let feed_ints acc xs = List.fold_left feed acc xs
let feed_array acc a = Array.fold_left feed acc a
let feed_float acc x = feed acc (Int64.to_int (Int64.bits_of_float x))

let feed_store acc store (prog : Transform.t) =
  let acc = ref acc in
  for reg = 0 to Array.length prog.Transform.config.Config.regs - 1 do
    acc := feed_array !acc (Store.array store ~reg)
  done;
  !acc

let feed_string acc s =
  let d = Digest.string s in
  feed_ints acc [ String.length s; Int64.to_int (String.get_int64_le d 0); Int64.to_int (String.get_int64_le d 8) ]

(* ---------- span tracer ----------

   Off, [span] is a direct call.  On, each span records its duration and
   allocation; a layer's self time (and self allocation) is its spans'
   minus what their child spans cover.  Totals are kept per layer name;
   the first [log_cap] spans are kept for the span file. *)
module Tr = struct
  let on = ref false

  type frame = { name : string; t0 : int; w0 : float; mutable child_ns : int; mutable child_w : float }
  type acc = { mutable self_ns : int; mutable self_w : float }

  let stack : frame list ref = ref []
  let accs : (string, acc) Hashtbl.t = Hashtbl.create 16
  let log_cap = 100_000
  let log : (string * int * int * int) list ref = ref [] (* name, depth, start, end *)
  let logged = ref 0
  let epoch = now ()

  (* words one [alloc_words] call allocates itself, removed from each span *)
  let calib =
    let a = alloc_words () in
    let b = alloc_words () in
    b -. a

  let reset () = Hashtbl.reset accs

  let close fr =
    let t1 = now () in
    let w = alloc_words () -. fr.w0 -. calib in
    let dur = t1 - fr.t0 in
    let a =
      match Hashtbl.find_opt accs fr.name with
      | Some a -> a
      | None ->
          let a = { self_ns = 0; self_w = 0. } in
          Hashtbl.add accs fr.name a;
          a
    in
    a.self_ns <- a.self_ns + dur - fr.child_ns;
    a.self_w <- a.self_w +. w -. fr.child_w;
    (match !stack with
    | _ :: (parent :: _ as rest) ->
        parent.child_ns <- parent.child_ns + dur;
        parent.child_w <- parent.child_w +. w;
        stack := rest
    | _ -> stack := []);
    if !logged < log_cap then begin
      incr logged;
      log := (fr.name, List.length !stack, fr.t0 - epoch, t1 - epoch) :: !log
    end

  let span name f =
    if not !on then f ()
    else begin
      let fr = { name; t0 = now (); w0 = alloc_words (); child_ns = 0; child_w = 0. } in
      stack := fr :: !stack;
      Fun.protect ~finally:(fun () -> close fr) f
    end

  (* self ns and self words of a layer since the last [reset] *)
  let self name =
    match Hashtbl.find_opt accs name with Some a -> (fi a.self_ns, a.self_w) | None -> (0., 0.)

  (* A source whose every pull is a [workload] span. *)
  let source inner =
    if not !on then inner
    else
      Psource.of_pull ?total:(Psource.total_hint inner) (fun () ->
          span "workload" (fun () -> Psource.next inner))

  let write path =
    (try Sys.mkdir (Filename.dirname path) 0o755 with Sys_error _ -> ());
    let oc = open_out path in
    output_string oc "{\"schema\": \"perfbench-spans/1\", \"unit\": \"ns\", \"spans\": [\n";
    List.iteri
      (fun i (name, depth, t0, t1) ->
        Printf.fprintf oc "%s{\"name\": \"%s\", \"depth\": %d, \"start\": %d, \"end\": %d}"
          (if i = 0 then "" else ",\n")
          name depth t0 t1)
      (List.rev !log);
    output_string oc "\n]}\n";
    close_out oc
end

(* ---------- workloads ---------- *)

(* What one operation contributes to the simulated statistics. *)
type stats = { pkts : int; delivered : int; cycles : int; norm : float }

(* Self time (ns) and self allocation (words) of a layer in one traced
   round. *)
type layer_self = string -> float * float

module type WORKLOAD = sig
  type st
  type out

  val setup_reps : int

  val setup : seed:int -> st
  (** Compile and transform every program the workload runs (and, for a
      fabric, build topology and routes): the host time before the first
      packet. *)

  val programs : st -> (Compile.t * Transform.t) list
  val n_ops : st -> int
  val op : st -> int -> out
  val stats : st -> out -> stats

  val digest : st -> int -> out -> int
  (** A digest of operation [i]'s output, compared between rounds. *)

  val check : st -> int -> out -> (unit, string) result
  (** The independent check of one operation, made after the timed
      region. *)

  val legs :
    st -> out array -> layer_self -> (string * float) list * (string * (unit, string) result) list
  (** The per-layer legs of a traced run: metrics, and the checks the legs
      make. *)
end

let compile_prog ?limits src =
  let c = Tr.span "domino" (fun () -> Compile.compile_exn ?limits src) in
  let p = Tr.span "transform" (fun () -> Transform.transform ?limits c.Compile.config) in
  (c, p)

(* Modelled-machine counters summed over the metered runs of a leg. *)
type mp5 = {
  mutable busy : int;
  mutable blocked : int;
  mutable slots : int; (* stages x k x cycles *)
  mutable max_queue : int;
  mutable moves : int;
  mutable cross : int;
  mutable phantoms : int;
  mutable lat_sum : int;
  mutable lat_n : int;
  mutable m_pkts : int;
}

let mp5_zero () =
  { busy = 0; blocked = 0; slots = 0; max_queue = 0; moves = 0; cross = 0; phantoms = 0; lat_sum = 0;
    lat_n = 0; m_pkts = 0 }

let mp5_add acc (m : Metrics.t) ~pkts ~max_queue =
  acc.busy <- acc.busy + Metrics.total m.Metrics.m_busy;
  acc.blocked <- acc.blocked + Metrics.total m.Metrics.m_blocked;
  acc.slots <- acc.slots + (m.Metrics.m_stages * m.Metrics.m_k * m.Metrics.m_cycles);
  acc.max_queue <- max acc.max_queue max_queue;
  acc.moves <- acc.moves + m.Metrics.m_remap_moves;
  acc.cross <- acc.cross + Metrics.total m.Metrics.m_xfer_cross;
  acc.phantoms <- acc.phantoms + m.Metrics.m_phantom_scheduled;
  acc.lat_sum <- acc.lat_sum + m.Metrics.m_lat_sum;
  acc.lat_n <- acc.lat_n + m.Metrics.m_lat_count;
  acc.m_pkts <- acc.m_pkts + pkts

let mp5_metrics acc =
  let share a b = if b = 0 then 0. else fi a /. fi b in
  [
    ("mp5.busy_share", share acc.busy acc.slots);
    ("mp5.blocked_share", share acc.blocked acc.slots);
    ("mp5.max_queue", fi acc.max_queue);
    ("mp5.remap_moves", fi acc.moves);
    ("mp5.xbar_cross_per_pkt", share acc.cross acc.m_pkts);
    ("mp5.phantoms_per_pkt", share acc.phantoms acc.m_pkts);
    ("mp5.latency_mean_cycles", share acc.lat_sum acc.lat_n);
  ]

let metrics_for (prog : Transform.t) ~k =
  Metrics.create ~stages:(Array.length prog.Transform.config.Config.stages) ~k

(* Telemetry is documented as a pure observer. *)
let observer_check ok = if ok then Ok () else Error "attaching Metrics changed the simulated results"

(* The verified single-switch operation of apps-verify and
   compile-corpus: golden run, MP5 run and Equiv, as mp5sim verifies. *)
type verified = {
  v_store : Store.t;
  v_headers : (int * int array) list;
  v_equivalent : bool;
  v_c1 : int;
  v_stats : stats;
}

let verify ?flow_of ~k sw trace =
  let golden = Tr.span "golden" (fun () -> Switch.golden sw trace) in
  let r = Tr.span "sim" (fun () -> Switch.run ~k sw trace) in
  let n = Array.length trace in
  let rep =
    Tr.span "equiv" (fun () ->
        Equiv.compare ~golden ~n_packets:n ~store:r.Sim.store ~headers_out:r.Sim.headers_out
          ~access_seqs:r.Sim.access_seqs ?flow_of ~exit_order:r.Sim.exit_order ())
  in
  {
    v_store = r.Sim.store;
    v_headers = r.Sim.headers_out;
    v_equivalent = Equiv.equivalent rep;
    v_c1 = rep.Equiv.c1_violations;
    v_stats =
      { pkts = n; delivered = r.Sim.delivered; cycles = r.Sim.cycles; norm = r.Sim.normalized_throughput };
  }

let verified_digest (prog : Transform.t) v =
  let acc = feed_store fnv_start v.v_store prog in
  let acc = List.fold_left (fun acc (pid, h) -> feed_array (feed acc pid) h) acc v.v_headers in
  let s = v.v_stats in
  Hashing.finish
    (feed_float (feed_ints acc [ Bool.to_int v.v_equivalent; v.v_c1; s.pkts; s.delivered; s.cycles ]) s.norm)

let verified_check (c : Compile.t) trace v =
  let regs, hdrs = Interp.interp c.Compile.env trace in
  Checks.all
    [
      lazy (Checks.registers ~expect:regs v.v_store);
      lazy (Checks.headers ~expect:hdrs v.v_headers);
      lazy (Checks.equal_int "delivered" ~expect:(Array.length trace) v.v_stats.delivered);
      lazy (if v.v_equivalent then Ok () else Error "Equiv: not equivalent");
      lazy (Checks.equal_int "C1 violations" ~expect:0 v.v_c1);
    ]

(* Metered twin of a verified operation's MP5 run, against a bare run. *)
let metered_leg acc ~k sw trace =
  let bare = Switch.run ~k sw trace in
  let m = metrics_for sw.Switch.prog ~k in
  let r = Switch.run ~metrics:m ~k sw trace in
  mp5_add acc m ~pkts:(Array.length trace) ~max_queue:r.Sim.max_queue;
  Sim.results_equal bare r

(* apps-verify: the four §4.4 apps, k = 4, on seeded web-search flow
   traces at line rate with bimodal 200/1400 B packets. *)
module Apps : WORKLOAD = struct
  let names = [| "flowlet"; "conga"; "wfq"; "sequencer" |]
  let k = 4
  let n_packets = 30_000
  let setup_reps = 20

  type st = { seed : int; progs : (Compile.t * Transform.t) array }
  type out = verified

  let setup ~seed =
    { seed; progs = Array.map (fun name -> compile_prog (List.assoc name Sources.all_named)) names }

  let programs st = Array.to_list st.progs
  let n_ops _ = Array.length names
  let flows st i = Tracegen.flows ~seed:((st.seed * 1_000) + i) ~n_packets ~k ~concurrency:64 ()
  let trace st i = Traces.trace_for names.(i) (flows st i)

  let sw st i =
    let compiled, prog = st.progs.(i) in
    { Switch.compiled; prog }

  let op st i =
    let pkts, trace =
      Tr.span "workload" (fun () ->
          let pkts = flows st i in
          (pkts, Traces.trace_for names.(i) pkts))
    in
    verify ~flow_of:(Traces.flow_of pkts) ~k (sw st i) trace

  let stats _ v = v.v_stats
  let digest st i v = verified_digest (snd st.progs.(i)) v
  let check st i v = verified_check (fst st.progs.(i)) (trace st i) v

  (* Golden's growth: its time over each whole trace against twice its
     time over the trace's first half (1.0 is linear). *)
  let legs st _ _ =
    let full = ref 0. and half = ref 0. in
    let acc = mp5_zero () in
    let ok = ref true in
    Array.iteri
      (fun i _ ->
        let trace = trace st i in
        let h = Array.sub trace 0 (Array.length trace / 2) in
        half := !half +. best_time 3 (fun () -> Switch.golden (sw st i) h);
        full := !full +. best_time 3 (fun () -> Switch.golden (sw st i) trace);
        ok := metered_leg acc ~k (sw st i) trace && !ok)
      names;
    (("golden.growth", !full /. (2. *. !half)) :: mp5_metrics acc, [ ("metered leg", observer_check !ok) ])
end

(* skewed-stream: the §4.3 synthetic program, 8 stateful stages of
   512-entry arrays, 95% of packets on 30% of the cells, 64 B packets at
   line rate, k = 4, pulled from a streaming source with an in-memory
   checkpoint every [checkpoint_every] cycles; [n_streams] streams on
   derived seeds a round. *)
module Skewed : WORKLOAD = struct
  let k = 4
  let n_streams = 4
  let n_packets = 12_500
  let checkpoint_every = 1_250
  let setup_reps = 40

  type st = { seed : int; compiled : Compile.t; prog : Transform.t }

  type out = {
    summary : Sim.summary;
    snap : string; (* the last checkpoint *)
    cursor : int; (* packets consumed when it was taken *)
    ckpts : int;
  }

  let setup ~seed =
    let compiled, prog = compile_prog (Sources.sensitivity_program ~stateful:8 ~reg_size:512) in
    { seed; compiled; prog }

  let programs st = [ (st.compiled, st.prog) ]
  let n_ops _ = n_streams

  let spec st i =
    let n_fields = st.compiled.Compile.config.Config.n_user_fields in
    {
      Tracegen.n_packets;
      k;
      pkt_bytes = 64;
      n_fields;
      index_fields = List.init n_fields Fun.id;
      reg_size = 512;
      pattern = Tracegen.Skewed;
      n_ports = 64;
      seed = (st.seed * 16) + i;
    }

  let stream ?loop ?checkpoint_every ?metrics ?prof st i =
    let src = Tr.source (Tracegen.sensitivity_source (spec st i)) in
    let last = ref ("", 0) and ckpts = ref 0 in
    let on_checkpoint ~cycle:_ snap =
      incr ckpts;
      last := (snap, Psource.consumed src)
    in
    match
      Sim.run_source ?loop ?checkpoint_every ~on_checkpoint ?metrics ?prof (Sim.default_params ~k) st.prog
        src
    with
    | Sim.Completed summary -> { summary; snap = fst !last; cursor = snd !last; ckpts = !ckpts }
    | Sim.Suspended _ -> failwith "skewed-stream: run suspended without a budget"

  let op st i = Tr.span "sim" (fun () -> stream ~checkpoint_every st i)

  let stats _ o =
    let s = o.summary in
    { pkts = s.Sim.s_packets; delivered = s.Sim.s_delivered; cycles = s.Sim.s_cycles;
      norm = s.Sim.s_normalized_throughput }

  let digest st _ o =
    let s = o.summary in
    let acc =
      feed_ints fnv_start
        [ s.Sim.s_delivered; s.Sim.s_dropped; s.Sim.s_dropped_stateless; s.Sim.s_marked; s.Sim.s_cycles;
          s.Sim.s_input_span; s.Sim.s_max_queue; s.Sim.s_packets; s.Sim.s_digests.Sim.dg_exits;
          s.Sim.s_digests.Sim.dg_access; o.cursor; o.ckpts ]
    in
    Hashing.finish
      (feed_string (feed_store (feed_float acc s.Sim.s_normalized_throughput) s.Sim.s_store st.prog) o.snap)

  let check st i o =
    let s = o.summary in
    let trace = Tracegen.sensitivity (spec st i) in
    let regs, _ = Interp.interp st.compiled.Compile.env trace in
    Checks.all
      [
        lazy (Checks.registers ~expect:regs s.Sim.s_store);
        lazy (Checks.equal_int "dropped" ~expect:0 s.Sim.s_dropped);
        lazy (Checks.equal_int "delivered" ~expect:n_packets s.Sim.s_delivered);
        lazy (if o.ckpts > 0 then Ok () else Error "no checkpoint was taken");
        lazy
          (match Sim.resume ~snapshot:o.snap st.prog (Tracegen.sensitivity_source (spec st i)) with
          | Ok (Sim.Completed r) when Sim.summary_equal r s -> Ok ()
          | Ok (Sim.Completed _) -> Error "resume from the last checkpoint: summary differs"
          | Ok (Sim.Suspended _) -> Error "resume from the last checkpoint suspended"
          | Error (Sim.Corrupt m | Sim.Mismatch m) -> Error ("resume rejected: " ^ m));
      ]

  (* Fast against generic loop, on the run without checkpoints.
     Snapshot encoding happens inside [run_source], so its time is read
     from the simulator's own profiler in sampled mode (a pure observer
     that keeps the fast loop).  Restore is timed from a source
     positioned at the snapshot's cursor with the stop flag up, less the
     one encoding that stopping makes. *)
  let legs st outs _ =
    let o = outs.(0) in
    let fast = best_time 3 (fun () -> stream ~loop:Sim.Fast st 0) in
    let generic = best_time 3 (fun () -> stream ~loop:Sim.Generic st 0) in
    let encode_us pf = fi (Prof.total_ns pf Prof.Checkpoint) /. fi (Prof.count pf Prof.Checkpoint) /. 1e3 in
    let ckpt =
      least
        (List.init 3 (fun _ ->
             let pf = Prof.create () in
             ignore (stream ~checkpoint_every ~prof:pf st 0);
             encode_us pf))
    in
    let restore =
      least
        (List.init 5 (fun _ ->
             let src = Tracegen.sensitivity_source (spec st 0) in
             for _ = 1 to o.cursor do
               ignore (Psource.next src)
             done;
             let pf = Prof.create () in
             let _, t = time (fun () -> Sim.resume ~prof:pf ~stop:(ref true) ~snapshot:o.snap st.prog src) in
             (t /. 1e3) -. encode_us pf))
    in
    let m = metrics_for st.prog ~k in
    let metered = stream ~checkpoint_every ~metrics:m st 0 in
    let acc = mp5_zero () in
    mp5_add acc m ~pkts:n_packets ~max_queue:metered.summary.Sim.s_max_queue;
    let n = fi n_packets in
    ( [
        ("loop.fast_ns_per_pkt", fast /. n);
        ("loop.generic_ns_per_pkt", generic /. n);
        ("snapshot.bytes", fi (String.length o.snap));
        ("snapshot.ckpt_us", ckpt);
        ("snapshot.restore_us", restore);
      ]
      @ mp5_metrics acc,
      [ ("metered leg", observer_check (Sim.summary_equal metered.summary o.summary)) ] )
end

(* fabric-fattree: a fattree:4 fabric (20 switches, 16 hosts, trunk
   delay 1) running the 4-stage synthetic program on seeded host-to-host
   traffic at 8 packets per cycle, with the conservation monitor
   attached; [n_runs] runs on derived seeds a round. *)
module Fattree : WORKLOAD = struct
  let k = 4
  let n_runs = 3
  let n_packets = 10_000
  let setup_reps = 20

  type st = { seed : int; compiled : Compile.t; prog : Transform.t; topo : Topology.t; policy : Routing.policy }
  type out = { r : Fabric.result; mon_ok : bool; mon_checks : int }

  let setup ~seed =
    let compiled, prog = compile_prog (Sources.sensitivity_program ~stateful:4 ~reg_size:512) in
    let topo, policy =
      Tr.span "fabric_setup" (fun () ->
          let topo = Topology.fat_tree ~k:4 ~delay:1 in
          (topo, Routing.shortest_paths topo))
    in
    { seed; compiled; prog; topo; policy }

  let programs st = [ (st.compiled, st.prog) ]
  let n_ops _ = n_runs
  let per_cycle st = Topology.n_hosts st.topo / 2

  let spec st i =
    let n_fields = st.compiled.Compile.config.Config.n_user_fields in
    {
      (Traffic.default_spec st.topo) with
      Traffic.n_packets;
      n_fields;
      per_cycle = per_cycle st;
      index_fields = List.init n_fields Fun.id;
      reg_size = 512;
      seed = (st.seed * 16) + i;
    }

  let op st i =
    let spec = spec st i in
    let params =
      { Fabric.fp_sim = Sim.default_params ~k; fp_topo = st.topo; fp_policy = st.policy;
        fp_plan = Mp5_fault.Linkplan.empty }
    in
    let mon = Monitor.create () in
    match
      Tr.span "fabric" (fun () ->
          Fabric.run ~monitor:mon ~dst:(Traffic.dst_of_input spec) params st.prog
            (Tr.source (Traffic.source spec)))
    with
    | Fabric.Completed r -> { r; mon_ok = Monitor.ok mon; mon_checks = Monitor.checks mon }
    | Fabric.Suspended _ -> failwith "fabric-fattree: run suspended without a budget"

  (* normalized: delivery rate over injection rate *)
  let stats st o =
    let r = o.r in
    { pkts = r.Fabric.fr_injected; delivered = r.Fabric.fr_delivered; cycles = r.Fabric.fr_cycles;
      norm = Fabric.throughput r /. fi (per_cycle st) }

  let digest _ _ o =
    let r = o.r in
    let hist acc (h : Fabric.Hist.t) = feed_array (feed_ints acc [ h.count; h.sum; h.max ]) h.buckets in
    let acc =
      feed_ints fnv_start
        [ r.Fabric.fr_injected; r.Fabric.fr_delivered; r.Fabric.fr_node_dropped; r.Fabric.fr_miss_dropped;
          r.Fabric.fr_link_dropped; r.Fabric.fr_cycles; r.Fabric.fr_exit_digest; r.Fabric.fr_access_digest;
          r.Fabric.fr_store_digest; Bool.to_int o.mon_ok; o.mon_checks ]
    in
    let acc = List.fold_left hist acc [ r.Fabric.fr_hop_hist; r.Fabric.fr_e2e_hist; r.Fabric.fr_hops_hist ] in
    Hashing.finish
      (List.fold_left feed_array acc
         [ r.Fabric.fr_node_delivered; r.Fabric.fr_node_dropped_by; r.Fabric.fr_node_max_queue ])

  let check st i o =
    let spec = spec st i in
    let src = Traffic.source spec in
    let rec pairs acc =
      match Psource.next src with
      | None -> acc
      | Some p -> pairs ((p.Machine.port, Traffic.dst_of_input spec p) :: acc)
    in
    let r = o.r in
    Checks.all
      [
        lazy (Checks.equal_int "injected" ~expect:n_packets r.Fabric.fr_injected);
        lazy (Checks.equal_int "delivered" ~expect:r.Fabric.fr_injected r.Fabric.fr_delivered);
        lazy
          (Checks.equal_int "dropped" ~expect:0
             (r.Fabric.fr_node_dropped + r.Fabric.fr_miss_dropped + r.Fabric.fr_link_dropped));
        lazy (if o.mon_ok && o.mon_checks > 0 then Ok () else Error "conservation monitor not clean");
        lazy
          (Checks.equal_int "switches traversed"
             ~expect:(Checks.hop_total st.topo (pairs []))
             r.Fabric.fr_hops_hist.Fabric.Hist.sum);
      ]

  let legs st outs self =
    let sum f = Array.fold_left (fun a o -> a + f o.r) 0 outs in
    let ns, words = self "fabric" in
    let hops = sum (fun r -> r.Fabric.fr_hops_hist.Fabric.Hist.sum)
    and delivered = sum (fun r -> r.Fabric.fr_hops_hist.Fabric.Hist.count) in
    ( [
        ("fabric.ns_per_switch_cycle", ns /. fi (sum (fun r -> r.Fabric.fr_cycles) * Topology.n_switches st.topo));
        ("fabric.words_per_pkt", words /. fi (sum (fun r -> r.Fabric.fr_injected)));
        ("fabric.hops_mean", fi hops /. fi delivered);
      ],
      [] )
end

(* compile-corpus: a seeded draw of generated programs, each compiled and
   transformed in set-up and verified on a short trace. *)
module Corpus : WORKLOAD = struct
  let k = 4
  let n_programs = 1_000
  let n_packets = 100
  let setup_reps = 1

  type st = { seed : int; progs : (Compile.t * Transform.t) array }
  type out = verified

  let prog_seed seed j = (seed * 100_003) + j

  (* Generating the programs makes the inputs; it is not set-up. *)
  let sources = ref (-1, [||])

  let setup ~seed =
    if fst !sources <> seed then
      sources := (seed, Array.init n_programs (fun j -> Progen.generate (prog_seed seed j)));
    { seed; progs = Array.map (compile_prog ~limits:Progen.limits) (snd !sources) }

  let programs st = Array.to_list st.progs
  let n_ops _ = n_programs
  let trace st j = Progen.trace ~seed:(prog_seed st.seed j) ~k ~n:n_packets

  let op st j =
    let trace = Tr.span "workload" (fun () -> trace st j) in
    let compiled, prog = st.progs.(j) in
    verify ~k { Switch.compiled; prog } trace

  let stats _ v = v.v_stats
  let digest st j v = verified_digest (snd st.progs.(j)) v
  let check st j v = verified_check (fst st.progs.(j)) (trace st j) v

  let legs st _ _ =
    let acc = mp5_zero () in
    let ok = ref true in
    Array.iteri
      (fun j (compiled, prog) -> ok := metered_leg acc ~k { Switch.compiled; prog } (trace st j) && !ok)
      st.progs;
    (mp5_metrics acc, [ ("metered leg", observer_check !ok) ])
end

let workloads : (string * (module WORKLOAD)) list =
  [
    ("apps-verify", (module Apps));
    ("skewed-stream", (module Skewed));
    ("fabric-fattree", (module Fattree));
    ("compile-corpus", (module Corpus));
  ]

(* ---------- the run ---------- *)

let end_to_end =
  [
    ("pkts_per_s", "1/s");
    ("setup_s", "s");
    ("heap_peak_mb", "MB");
    ("alloc_words_per_pkt", "words/pkt");
    ("sim_throughput", "pkts/cycle");
    ("sim_cycles", "cycles");
  ]

(* A layer that a workload does not run reads 0 there. *)
let per_layer =
  [
    ("domino.compile_us", "us"); ("domino.stages", "count"); ("domino.atoms", "count");
    ("transform.us", "us"); ("transform.stages", "count"); ("transform.pinned_arrays", "count");
    ("kernel.build_us", "us");
    ("workload.ns_per_pkt", "ns/pkt"); ("workload.words_per_pkt", "words/pkt");
    ("golden.ns_per_pkt", "ns/pkt"); ("golden.words_per_pkt", "words/pkt"); ("golden.growth", "ratio");
    ("sim.ns_per_pkt", "ns/pkt"); ("sim.ns_per_cycle", "ns/cycle"); ("sim.words_per_pkt", "words/pkt");
    ("sim.normalized_throughput", "ratio");
    ("loop.fast_ns_per_pkt", "ns/pkt"); ("loop.generic_ns_per_pkt", "ns/pkt");
    ("equiv.ns_per_pkt", "ns/pkt");
    ("snapshot.bytes", "bytes"); ("snapshot.ckpt_us", "us"); ("snapshot.restore_us", "us");
    ("fabric.setup_us", "us"); ("fabric.ns_per_switch_cycle", "ns/cycle");
    ("fabric.words_per_pkt", "words/pkt"); ("fabric.hops_mean", "switches");
    ("mp5.busy_share", "ratio"); ("mp5.blocked_share", "ratio"); ("mp5.max_queue", "pkts");
    ("mp5.remap_moves", "count"); ("mp5.xbar_cross_per_pkt", "1/pkt");
    ("mp5.phantoms_per_pkt", "1/pkt"); ("mp5.latency_mean_cycles", "cycles");
    ("workload.self_ms", "ms"); ("golden.self_ms", "ms"); ("sim.self_ms", "ms");
    ("equiv.self_ms", "ms"); ("fabric.self_ms", "ms"); ("round.unattributed_ms", "ms");
    ("round.traced_ms", "ms"); ("round.untraced_ms", "ms"); ("trace.overhead_ms", "ms");
  ]

let round_layers = [ "workload"; "golden"; "sim"; "equiv"; "fabric" ]
let setup_layers = [ "domino"; "transform"; "fabric_setup" ]

type round = {
  traced : bool;
  wall : float; (* ns, the operations only *)
  words : float;
  stats : stats list;
  self : (string * (float * float)) list; (* traced rounds *)
}

let total f r = List.fold_left (fun a s -> a + f s) 0 r.stats

let run (module W : WORKLOAD) ~name ~seed ~seconds ~trace =
  (* The reference is sampled when its last sample is older than
     [Hostref.every_ns].  [bracket f] runs [f] and gives the mean of the
     reference samples just before and just after it; [timed f] times
     [f] and also gives that time over the mean. *)
  let ref_ns = ref nan and ref_at = ref 0 in
  let host_ref () =
    if Float.is_nan !ref_ns || now () - !ref_at > Hostref.every_ns then begin
      ref_ns := Hostref.sample ();
      ref_at := now ()
    end;
    !ref_ns
  in
  let bracket f =
    let before = host_ref () in
    let r = f () in
    (r, (before +. host_ref ()) /. 2.)
  in
  let timed f =
    let (r, t), ref_t = bracket (fun () -> time f) in
    (r, t, t /. ref_t)
  in
  (* Set-up runs in batches of [setup_reps]: one before the first round
     and one after every round, so that the batches spread over the whole
     run.  A batch's least set-up time over the reference's leaves out
     the set-ups that a cache emptied by the round before slowed. *)
  let setups = ref [] and batches = ref [] in
  let setup () =
    Tr.reset ();
    Tr.on := trace;
    let st, t = time (fun () -> W.setup ~seed) in
    Tr.on := false;
    setups := (t, List.map (fun l -> (l, fst (Tr.self l))) setup_layers) :: !setups;
    (st, t)
  in
  let setup_batch () =
    let ts, ref_t = bracket (fun () -> List.init W.setup_reps (fun _ -> snd (setup ()))) in
    batches := (least ts /. ref_t) :: !batches
  in
  let st = fst (setup ()) in
  setup_batch ();
  let n_ops = W.n_ops st in
  (* Whole rounds until the deadline.  Only a digest of each output is
     kept, so that the outputs of earlier rounds do not show in the
     heap.  After the deadline one more round (the check round, untimed)
     runs each operation again and checks its output; every round whose
     output had the same digest shares that verdict. *)
  let first = Array.make n_ops None in
  let same_as_first = Array.make n_ops 0 and bad = Array.make n_ops 0 in
  let rounds = ref [] in
  (* each operation's least time over the untraced rounds and over the
     traced ones, and its packets *)
  let best = Array.make n_ops infinity and best_traced = Array.make n_ops infinity in
  let op_pkts = Array.make n_ops 0 in
  let run_op i =
    try Some (W.op st i)
    with e ->
      Printf.eprintf "%s: operation %d raised %s\n%!" name i (Printexc.to_string e);
      None
  in
  (* each operation's times over the reference's, over the untraced
     rounds *)
  let ratios = Array.make n_ops [] in
  let do_round traced =
    Gc.full_major ();
    Tr.reset ();
    Tr.on := traced;
    let wall = ref 0. and words = ref 0. and stats = ref [] in
    for i = 0 to n_ops - 1 do
      let (out, w), t, rel =
        timed (fun () ->
            let w0 = alloc_words () in
            let out = run_op i in
            (out, alloc_words () -. w0))
      in
      wall := !wall +. t;
      words := !words +. w;
      match out with
      | None -> bad.(i) <- bad.(i) + 1
      | Some o -> (
          let s = W.stats st o in
          stats := s :: !stats;
          op_pkts.(i) <- s.pkts;
          let b = if traced then best_traced else best in
          b.(i) <- Float.min b.(i) t;
          if not traced then ratios.(i) <- rel :: ratios.(i);
          let d = W.digest st i o in
          match first.(i) with
          | None ->
              first.(i) <- Some d;
              same_as_first.(i) <- 1
          | Some f when f = d -> same_as_first.(i) <- same_as_first.(i) + 1
          | Some _ ->
              Printf.eprintf "%s: operation %d gave another output than in its first round\n%!" name i;
              bad.(i) <- bad.(i) + 1)
    done;
    Tr.on := false;
    let self = if traced then List.map (fun l -> (l, Tr.self l)) round_layers else [] in
    rounds := { traced; wall = !wall; words = !words; stats = !stats; self } :: !rounds
  in
  let deadline = now () + int_of_float (seconds *. 1e9) in
  let n_rounds = ref 0 in
  while !n_rounds < 2 || now () < deadline do
    do_round (trace && !n_rounds mod 2 = 1);
    setup_batch ();
    incr n_rounds
  done;
  let heap_peak = (Gc.quick_stat ()).Gc.top_heap_words in
  let setups = !setups in
  let attempted = ref ((!n_rounds + 1) * n_ops) and failed = ref 0 in
  let outs =
    Array.init n_ops (fun i ->
        failed := !failed + bad.(i);
        let out = run_op i in
        let verdict =
          match out with
          | None -> Error "raised in the check round"
          | Some o when Some (W.digest st i o) <> first.(i) -> Error "gave another output in the check round"
          | Some o -> W.check st i o
        in
        (match verdict with
        | Ok () -> ()
        | Error m ->
            Printf.eprintf "%s: operation %d: %s\n%!" name i m;
            failed := !failed + same_as_first.(i) + 1);
        out)
  in
  let rounds = List.rev !rounds in
  let untraced = List.filter (fun r -> not r.traced) rounds in
  let r1 = List.hd rounds in
  let fpkts r = fi (total (fun s -> s.pkts) r) in
  let metrics =
    if not trace then
      [
        (* per operation, the median of its times over the reference's,
           in seconds of the reference's nominal speed (see [Hostref]) *)
        ( "pkts_per_s",
          fi (Array.fold_left ( + ) 0 op_pkts)
          /. (Array.fold_left (fun a l -> a +. median l) 0. ratios *. Hostref.nominal_ns /. 1e9) );
        (* the median over the batches (see [setup_batch]) *)
        ("setup_s", median !batches *. Hostref.nominal_ns /. 1e9);
        ("heap_peak_mb", fi (heap_peak * (Sys.word_size / 8)) /. 1048576.);
        ("alloc_words_per_pkt", median (List.map (fun r -> r.words /. fpkts r) untraced));
        ("sim_throughput", fi (total (fun s -> s.delivered) r1) /. fi (total (fun s -> s.cycles) r1));
        ("sim_cycles", fi (total (fun s -> s.cycles) r1));
      ]
    else begin
      let outs = Array.map (function Some o -> o | None -> failwith "an operation failed in the check round") outs in
      (* Traced and untraced round times are each the sum of the
         operations' least times.  The layer self times are those of the
         fastest traced round, scaled to the traced round time, so that
         they and the unattributed rest add up to it exactly. *)
      let sum = Array.fold_left ( +. ) 0. in
      let traced_ns = sum best_traced and untraced_ns = sum best in
      let mid =
        List.fold_left
          (fun a r -> if r.traced && (not a.traced || r.wall < a.wall) then r else a)
          (List.hd rounds) rounds
      in
      let scale = traced_ns /. mid.wall in
      let self l =
        let ns, words = Option.value (List.assoc_opt l mid.self) ~default:(0., 0.) in
        (ns *. scale, words)
      in
      let pkts = fpkts mid in
      let per_pkt l = fst (self l) /. pkts and words_per_pkt l = snd (self l) /. pkts in
      let progs = W.programs st in
      let n_progs = fi (List.length progs) in
      let mean f = List.fold_left (fun a p -> a +. f p) 0. progs /. n_progs in
      let setup_us l = least (List.map (fun (_, ls) -> List.assoc l ls) setups) /. 1e3 in
      let atoms (c : Config.t) =
        Array.fold_left
          (fun a (s : Config.stage) -> a + List.length s.Config.stateless + List.length s.Config.atoms)
          0 c.Config.stages
      in
      let spanned = List.fold_left (fun a l -> a +. fst (self l)) 0. round_layers in
      let legs, leg_checks = W.legs st outs self in
      List.iter
        (fun (what, v) ->
          incr attempted;
          match v with
          | Ok () -> ()
          | Error m ->
              Printf.eprintf "%s: %s: %s\n%!" name what m;
              incr failed)
        leg_checks;
      let got =
        [
          ("domino.compile_us", setup_us "domino" /. n_progs);
          ("domino.stages", mean (fun (c, _) -> fi (Array.length c.Compile.config.Config.stages)));
          ("domino.atoms", mean (fun (c, _) -> fi (atoms c.Compile.config)));
          ("transform.us", setup_us "transform" /. n_progs);
          ("transform.stages", mean (fun (_, p) -> fi (Array.length p.Transform.config.Config.stages)));
          ( "transform.pinned_arrays",
            mean (fun (_, p) -> fi (Array.fold_left (fun a s -> if s then a else a + 1) 0 p.Transform.sharded)) );
          ( "kernel.build_us",
            best_time 21 (fun () -> List.iter (fun (_, p) -> ignore (Kernel.create ~compiled:true p)) progs)
            /. n_progs /. 1e3 );
          ("workload.ns_per_pkt", per_pkt "workload");
          ("workload.words_per_pkt", words_per_pkt "workload");
          ("golden.ns_per_pkt", per_pkt "golden");
          ("golden.words_per_pkt", words_per_pkt "golden");
          ("sim.ns_per_pkt", per_pkt "sim");
          ("sim.ns_per_cycle", fst (self "sim") /. fi (total (fun s -> s.cycles) mid));
          ("sim.words_per_pkt", words_per_pkt "sim");
          ( "sim.normalized_throughput",
            List.fold_left (fun a s -> a +. s.norm) 0. r1.stats /. fi (List.length r1.stats) );
          ("equiv.ns_per_pkt", per_pkt "equiv");
          ("fabric.setup_us", setup_us "fabric_setup");
          ("round.traced_ms", traced_ns /. 1e6);
          ("round.untraced_ms", untraced_ns /. 1e6);
          ("trace.overhead_ms", (traced_ns -. untraced_ns) /. 1e6);
          ("round.unattributed_ms", (traced_ns -. spanned) /. 1e6);
        ]
        @ List.map (fun l -> (l ^ ".self_ms", fst (self l) /. 1e6)) round_layers
        @ legs
      in
      Tr.write (Printf.sprintf "perfbench/out/spans-%s-%d.json" name seed);
      List.map (fun (n, _) -> (n, Option.value (List.assoc_opt n got) ~default:0.)) per_layer
    end
  in
  (!attempted, !failed, metrics)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat " | " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N input seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, "S how long to run rounds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
  in
  let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match List.assoc_opt !workload workloads with
  | None ->
      Arg.usage spec usage;
      exit 2
  | Some _ when !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) ->
      Arg.usage spec usage;
      exit 2
  | Some w ->
      let attempted, failed, metrics = run w ~name:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
      let units = if !trace = 1 then per_layer else end_to_end in
      let metric (n, v) =
        if not (Float.is_finite v) then failwith (Printf.sprintf "metric %s is not finite" n);
        Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" n v (List.assoc n units)
      in
      Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" (failed = 0)
        attempted failed
        (String.concat ", " (List.map metric metrics));
      exit (if failed = 0 then 0 else 1)
