(* A work-sharing domain pool: tasks are indices 0..n-1 claimed from a
   shared atomic cursor, so domains that finish early steal the remaining
   work automatically.  No dependencies beyond the stdlib (Domain /
   Atomic / Mutex); [jobs <= 1] degenerates to a plain sequential loop on
   the calling domain. *)

let default_jobs () = Domain.recommended_domain_count ()

(* Outcome of task [i]; [None] means not executed (only possible after a
   sibling task raised and cancelled the run). *)
type 'a cell = 'a option

(* How many indices one fetch_and_add claims.  Whole-simulation tasks
   (milliseconds each) amortize a single atomic trivially, but fleet-
   scale batteries fan out millions of tiny tasks — there the cursor
   line bounces between every domain on every task.  Claiming a short
   run per CAS divides that traffic by [chunk] while bounding the load
   imbalance a straggler can cause at the tail to [chunk - 1] tasks. *)
let chunk_for ~jobs n =
  if n <= jobs * 8 then 1 else Stdlib.min 64 (n / (jobs * 8))

let map ~jobs n f =
  if n < 0 then invalid_arg "Pool.map: negative task count";
  if n = 0 then [||]
  else if jobs <= 1 || n = 1 then Array.init n (fun i -> f i)
  else begin
    let results : ('a, exn) result cell array = Array.make n None in
    let next = Atomic.make 0 in
    (* the lowest index that has raised so far ([n] = none): tasks above
       it are cancelled, tasks below it still run — one of them may fail
       too, and the sequential run would raise that one *)
    let first_failure = Atomic.make n in
    let rec note_failure i =
      let cur = Atomic.get first_failure in
      if i < cur && not (Atomic.compare_and_set first_failure cur i) then
        note_failure i
    in
    let chunk = chunk_for ~jobs n in
    let worker () =
      let continue_ = ref true in
      while !continue_ do
        let start = Atomic.fetch_and_add next chunk in
        (* claims only grow, so once past the first failure every later
           claim is too *)
        if start >= n || start > Atomic.get first_failure then
          continue_ := false
        else begin
          let stop = Stdlib.min n (start + chunk) in
          let i = ref start in
          while !i < stop && !i < Atomic.get first_failure do
            (match f !i with
            | v -> results.(!i) <- Some (Ok v)
            | exception e ->
                results.(!i) <- Some (Error e);
                note_failure !i);
            incr i
          done
        end
      done
    in
    let spawned = Stdlib.min jobs n - 1 in
    let domains = Array.init spawned (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains;
    (* fail with the lowest-index exception for reproducible reports *)
    Array.iter
      (function Some (Error e) -> raise e | Some (Ok _) | None -> ())
      results;
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error _) | None -> assert false (* unreachable: no error *))
      results
  end

(* The per-run metrics-isolation harness (see DESIGN.md "Parallel
   harness"): every task records into its own fresh registry — the global
   registry is never touched off the calling domain — and the registries
   are folded into [metrics] in task order once every domain has joined.
   Folding in index order makes the merged registry identical whatever
   [jobs] is, so parallel and sequential batteries report the same
   metric deltas. *)
let map_runs ~jobs ~metrics n f =
  let out =
    map ~jobs n (fun i ->
        let m = Obs.Metrics.create () in
        let v = f ~metrics:m i in
        (v, m))
  in
  Array.map
    (fun (v, m) ->
      Obs.Metrics.merge ~into:metrics m;
      v)
    out
