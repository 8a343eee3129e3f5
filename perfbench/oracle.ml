(* Output checks: what the replicas' final state must look like given the
   replies the generator received.

   An [Add] or [Blob] adds 1 to its key, so a key's final value is the
   number of distinct increments applied to it. It must be at least the
   acknowledged ones (no acknowledged write lost, also across a crash) and
   at most those plus the requests left unanswered (nothing applied twice).
   Each acknowledged increment reports the value it produced; two equal
   reports for one key mean one increment was applied twice or another
   lost. A key's final [Set] value is the acknowledged [Set] latest in log
   order — slot, then the batch's canonical (client, rid) order — or one of
   the unanswered [Set]s, which may have been applied after it. *)

open Dex_service

type key_state = {
  mutable acked_incr : int;
  counts : (int, unit) Hashtbl.t;
  mutable dup_counts : int;
  mutable max_count : int;
  mutable last_set : (int * int * int * int) option;  (** slot, client, rid, value *)
}

type t = { keys : (string, key_state) Hashtbl.t; mutable acked : int; mutable errors : string list }

let create () = { keys = Hashtbl.create 256; acked = 0; errors = [] }

let key_state t k =
  match Hashtbl.find_opt t.keys k with
  | Some s -> s
  | None ->
    let s =
      { acked_incr = 0; counts = Hashtbl.create 64; dup_counts = 0; max_count = 0; last_set = None }
    in
    Hashtbl.replace t.keys k s;
    s

let error t msg = t.errors <- msg :: t.errors

let applied t (req : Wire.request) ~slot (output : State_machine.output) =
  t.acked <- t.acked + 1;
  match (req.Wire.command, output) with
  | (State_machine.Add (k, _) | State_machine.Blob (k, _)), State_machine.Count c ->
    let s = key_state t k in
    s.acked_incr <- s.acked_incr + 1;
    if Hashtbl.mem s.counts c then s.dup_counts <- s.dup_counts + 1
    else Hashtbl.replace s.counts c ();
    s.max_count <- max s.max_count c
  | State_machine.Set (k, v), State_machine.Done ->
    let s = key_state t k in
    let pos = (slot, req.Wire.client, req.Wire.rid, v) in
    (match s.last_set with
    | Some best when compare best pos >= 0 -> ()
    | _ -> s.last_set <- Some pos)
  | State_machine.Get _, State_machine.Found _ -> ()
  | _ -> error t (Printf.sprintf "unexpected reply to client %d rid %d" req.Wire.client req.Wire.rid)

(* [unresolved]: requests never acknowledged (still in flight after the
   drain, or failed); [final]: one replica's state after convergence. *)
let verify t ~unresolved ~(final : (string * int) list) =
  let errors = ref t.errors in
  let fail fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let open_incr = Hashtbl.create 16 and open_sets = Hashtbl.create 16 in
  List.iter
    (fun (r : Wire.request) ->
      match r.Wire.command with
      | State_machine.Add (k, _) | State_machine.Blob (k, _) ->
        Hashtbl.replace open_incr k (1 + Option.value ~default:0 (Hashtbl.find_opt open_incr k))
      | State_machine.Set (k, v) -> Hashtbl.add open_sets k v
      | State_machine.Get _ | State_machine.Del _ | State_machine.Nop -> ())
    unresolved;
  let final_of k = List.assoc_opt k final in
  Hashtbl.iter
    (fun k s ->
      let v = Option.value ~default:0 (final_of k) in
      let open_k = Option.value ~default:0 (Hashtbl.find_opt open_incr k) in
      if s.dup_counts > 0 then fail "%s: %d acknowledged increments saw a repeated value" k s.dup_counts;
      if s.acked_incr > 0 || open_k > 0 then begin
        if v < s.acked_incr then fail "%s: %d < %d acknowledged increments (lost write)" k v s.acked_incr;
        if v > s.acked_incr + open_k then
          fail "%s: %d > %d acknowledged + %d unanswered increments (applied twice)" k v
            s.acked_incr open_k;
        if v < s.max_count then fail "%s: %d below an acknowledged count %d" k v s.max_count
      end;
      match s.last_set with
      | None -> ()
      | Some (_, _, _, want) ->
        if v <> want && not (List.mem v (Hashtbl.find_all open_sets k)) then
          fail "%s: final %d is not the last acknowledged write %d" k v want)
    t.keys;
  List.iter
    (fun (k, _) ->
      if (not (Hashtbl.mem t.keys k)) && not (Hashtbl.mem open_incr k || Hashtbl.mem open_sets k)
      then fail "%s: present in the final state but never written" k)
    final;
  List.rev !errors
