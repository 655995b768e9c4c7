[@@@alert "-unstable"]

open Effect
open Effect.Deep

type _ Effect.t += Yield : unit Effect.t

type status = Runnable | Finished | Failed of exn

type state =
  | Not_started of (unit -> unit)
  | Suspended of (unit, unit) continuation
  | Running  (** sentinel while the fiber occupies the OCaml stack *)
  | Done
  | Dead of exn

type t = { fpid : int; mutable state : state }

let spawn ~pid f = { fpid = pid; state = Not_started f }
let pid t = t.fpid

let status t =
  match t.state with
  | Not_started _ | Suspended _ -> Runnable
  | Done -> Finished
  | Dead e -> Failed e
  | Running -> Runnable

let yield () = perform Yield

(* Installed once per fiber, at its first step.  The yield action is
   bound here, once, so a yield allocates no [Some (fun k -> ...)]: [effc]
   runs on every yield and only hands back this one value. *)
let handler t =
  let suspend =
    Some (fun (k : (unit, unit) continuation) -> t.state <- Suspended k)
  in
  {
    retc = (fun () -> t.state <- Done);
    exnc = (fun e -> t.state <- Dead e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Yield -> (suspend : ((a, unit) continuation -> unit) option)
        | _ -> None);
  }

let step t =
  match t.state with
  | Done | Dead _ | Running ->
      invalid_arg "Fiber.step: fiber is not runnable"
  | Not_started f ->
      t.state <- Running;
      match_with f () (handler t);
      status t
  | Suspended k ->
      t.state <- Running;
      continue k ();
      status t

let run_to_completion t ~max_steps =
  let rec go n =
    if n = 0 then status t
    else
      match status t with
      | Runnable ->
          ignore (step t);
          go (n - 1)
      | s -> s
  in
  go max_steps
