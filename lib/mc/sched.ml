open Mp_sim

type step =
  | Tie of { n : int; pick : int; time : float; labels : string array }
  | Net of { n : int; pick : int; time : float; label : string }

type mode = Follow | Random of { seed : int; prob : float }

type rt_mode = Rt_follow | Rt_random of { rng : Mp_util.Prng.t; prob : float }

type t = {
  quantum_us : float;
  max_delay_steps : int;
  mode : rt_mode;
  plan : (int, int) Hashtbl.t;
  mutable pos : int;
  mutable steps_rev : step list;
  mutable taken_rev : (int * int) list;
}

let create ~quantum_us ~max_delay_steps ~mode ~plan () =
  let planned = Hashtbl.create (List.length plan * 2 + 1) in
  List.iter (fun (p, k) -> Hashtbl.replace planned p k) plan;
  let mode =
    match mode with
    | Follow -> Rt_follow
    | Random { seed; prob } ->
      Rt_random { rng = Mp_util.Prng.create ~seed; prob }
  in
  {
    quantum_us;
    max_delay_steps;
    mode;
    plan = planned;
    pos = 0;
    steps_rev = [];
    taken_rev = [];
  }

(* One pick at the current position: the plan wins; otherwise Follow keeps
   the default and Random deviates with its configured probability, uniform
   over the n-1 non-default alternatives. *)
let next_pick t ~n =
  let pick =
    match Hashtbl.find_opt t.plan t.pos with
    | Some k -> k
    | None -> (
      match t.mode with
      | Rt_follow -> 0
      | Rt_random { rng; prob } ->
        if n > 1 && Mp_util.Prng.float rng 1.0 < prob then
          1 + Mp_util.Prng.int rng (n - 1)
        else 0)
  in
  if pick < 0 || pick >= n then 0 else pick

let log_step t step ~pick =
  t.steps_rev <- step :: t.steps_rev;
  if pick <> 0 then t.taken_rev <- (t.pos, pick) :: t.taken_rev;
  t.pos <- t.pos + 1

let install t e =
  Engine.set_chooser e
    (Some
       {
         Engine.choose =
           (fun ~time ~labels ->
             let n = Array.length labels in
             let pick = next_pick t ~n in
             log_step t (Tie { n; pick; time; labels = Array.copy labels }) ~pick;
             pick);
         perturb_latency =
           (fun ~label ~now ->
             let n = t.max_delay_steps + 1 in
             let pick = next_pick t ~n in
             log_step t (Net { n; pick; time = now; label }) ~pick;
             float_of_int pick *. t.quantum_us);
       })

let choice_points t = t.pos

(* The filler of [steps]'s array, a constant: a schedule can log more than
   256 steps, and [Array.make] (or [Array.of_list]) of that many with a
   young step forces a minor collection. *)
let no_step = Net { n = 0; pick = 0; time = 0.0; label = "" }

let steps t =
  let a = Array.make t.pos no_step in
  let rec fill i = function
    | [] -> ()
    | s :: rest ->
      a.(i) <- s;
      fill (i - 1) rest
  in
  fill (t.pos - 1) t.steps_rev;
  a

let taken t = List.rev t.taken_rev

let is_digit c = c >= '0' && c <= '9'

let target_host label =
  let n = String.length label in
  let rec scan i best =
    if i >= n - 1 then best
    else if label.[i] = 'h' && is_digit label.[i + 1] then begin
      let j = ref (i + 1) in
      while !j < n && is_digit label.[!j] do
        incr j
      done;
      scan !j (Some (int_of_string (String.sub label (i + 1) (!j - i - 1))))
    end
    else scan (i + 1) best
  in
  scan 0 None

let independent a b =
  match (target_host a, target_host b) with
  | Some ha, Some hb -> ha <> hb
  | _ -> false
