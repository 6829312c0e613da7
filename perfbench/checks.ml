(* Output checks that do not trust the simulator.  Each compares what a
   run produced with a computation made apart from it: the reference
   Domino interpreter (sequential C semantics, no stages, no pipelines)
   for registers and headers, and a breadth-first search over the raw
   topology edges for fabric hop counts.  None compares against a stored
   copy of an earlier run. *)

module Store = Mp5_banzai.Store
module Topology = Mp5_fabric.Topology

let fail fmt = Printf.ksprintf (fun m -> Error m) fmt

let all checks = List.fold_left (fun acc c -> Result.bind acc (fun () -> Lazy.force c)) (Ok ()) checks

(* Every register cell the interpreter ends with equals the run's. *)
let registers ~(expect : int array array) (store : Store.t) =
  let exception Diff of (int * int * int * int) in
  try
    Array.iteri
      (fun reg cells ->
        Array.iteri
          (fun idx v ->
            let got = Store.get store ~reg ~idx in
            if got <> v then raise (Diff (reg, idx, v, got)))
          cells)
      expect;
    Ok ()
  with Diff (reg, idx, v, got) -> fail "register %d[%d]: reference %d, run %d" reg idx v got

(* Every packet of the trace leaves exactly once, with the interpreter's
   headers. *)
let headers ~(expect : int array array) (outs : (int * int array) list) =
  let n = Array.length expect in
  let seen = Array.make n false in
  let rec go = function
    | [] -> (
        match Array.find_index not seen with
        | Some pid -> fail "packet %d never delivered" pid
        | None -> Ok ())
    | (pid, h) :: rest ->
        if pid < 0 || pid >= n then fail "unknown packet id %d" pid
        else if seen.(pid) then fail "packet %d delivered twice" pid
        else if h <> expect.(pid) then fail "packet %d: headers differ from the reference" pid
        else begin
          seen.(pid) <- true;
          go rest
        end
  in
  go outs

let equal_int what ~expect got =
  if expect = got then Ok () else fail "%s: expected %d, got %d" what expect got

(* Switches on a shortest host-to-host path, from a BFS over the
   topology's links that ignores the routing tables entirely:
   [table.(src).(dst)].  Vertices are hosts [0, H) then switches. *)
let switch_hops topo =
  let nh = Topology.n_hosts topo and ns = Topology.n_switches topo in
  let vertex = function Topology.Host h -> h | Topology.Switch s -> nh + s in
  let adj = Array.make (nh + ns) [] in
  for l = 0 to Topology.n_links topo - 1 do
    let { Topology.l_src; l_dst; _ } = Topology.link topo l in
    adj.(vertex l_src) <- vertex l_dst :: adj.(vertex l_src)
  done;
  Array.init nh (fun src ->
      let dist = Array.make (nh + ns) (-1) in
      let q = Queue.create () in
      dist.(src) <- 0;
      Queue.add src q;
      while not (Queue.is_empty q) do
        let v = Queue.pop q in
        (* hosts are endpoints: a path never passes through one *)
        if v = src || v >= nh then
          List.iter
            (fun w ->
              if dist.(w) < 0 then begin
                dist.(w) <- dist.(v) + 1;
                Queue.add w q
              end)
            adj.(v)
      done;
      (* host, s1 .. sd, host: d switches on d + 1 links *)
      Array.init nh (fun dst -> if dst = src then 0 else dist.(dst) - 1))

let hop_total topo pairs =
  let table = switch_hops topo in
  List.fold_left (fun acc (src, dst) -> acc + table.(src).(dst)) 0 pairs
