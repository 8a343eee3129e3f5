(* Entry point of the service benchmark's two processes; perfbench/run.py
   builds this executable and starts both, each pinned to its own core.

     bench.exe deploy --workload W --seed S --trace 0|1 --dir D
     bench.exe load --workload W --seed S --seconds N --ctl PORT
                    --ports P0,P1,.. --setup S1,S2,.. --trace 0|1
                    --cores DEPLOY,LOADGEN *)

let () =
  let args = Array.to_list Sys.argv in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | bad :: _ -> failwith ("unexpected argument " ^ bad)
  in
  let mode, o =
    match args with
    | _ :: mode :: rest -> (mode, opts [] rest)
    | _ -> failwith "usage: bench.exe (deploy|load) --option value ..."
  in
  let get k = match List.assoc_opt k o with Some v -> v | None -> failwith ("missing --" ^ k) in
  let workload =
    match Perfbench.Workload.of_name (get "workload") with
    | Some w -> w
    | None -> failwith ("unknown workload " ^ get "workload")
  in
  let seed = int_of_string (get "seed") in
  let trace = get "trace" = "1" in
  let csv conv k = List.map conv (String.split_on_char ',' (get k)) in
  match mode with
  | "deploy" -> Deploy.main ~workload ~seed ~trace ~dir:(get "dir")
  | "load" ->
    Loadgen.main ~workload ~seed ~seconds:(float_of_string (get "seconds"))
      ~ctl_port:(int_of_string (get "ctl")) ~ports:(csv int_of_string "ports")
      ~setup:(csv float_of_string "setup") ~trace ~cores:(csv int_of_string "cores")
  | m -> failwith ("unknown mode " ^ m)
