(* The closed-form fleet against the oracle walk, on the smartphone and
   mul1–mul12 under the point, dirichlet:50 and jitter:0.3 usage models,
   4,000 devices per arm, α = 0.01 Bonferroni-corrected over all cells.
   Horizons come from the command line (default 1000 and 10000).  Exits
   1 if any cell fails.

     dune exec test/ks_gate/ks_gate.exe -- 1000 10000 *)

let () =
  let horizons =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> [ 1000.0; 10_000.0 ]
    | args -> List.map float_of_string args
  in
  let names = "smartphone" :: List.init 12 (fun i -> Printf.sprintf "mul%d" (i + 1)) in
  let cells = Fleet_gate.grid ~names ~horizons () in
  List.iter (fun c -> Format.printf "%a@." Fleet_gate.pp_cell c) cells;
  let failed = List.filter (fun c -> not (Fleet_gate.passes c)) cells in
  Format.printf "%d of %d cells pass@."
    (List.length cells - List.length failed)
    (List.length cells);
  if failed <> [] then exit 1
