(** The five applications of the paper's evaluation as one value: pick an
    app and its inputs by name, then set it up on any DSM system. *)

type t =
  | Sor of Sor.params
  | Is of Is.params
  | Water of Water.params
  | Lu of Lu.params
  | Tsp of Tsp.params

let names = [ "sor"; "is"; "water"; "lu"; "tsp" ]

(** The app named [name] with its default inputs, or with the paper's full
    input sets when [paper] is set. *)
let of_name ?(paper = false) name =
  match name with
  | "sor" -> Sor (if paper then Sor.paper_params else Sor.default_params)
  | "is" -> Is (if paper then Is.paper_params else Is.default_params)
  | "water" -> Water (if paper then Water.paper_params else Water.default_params)
  | "lu" -> Lu (if paper then Lu.paper_params else Lu.default_params)
  | "tsp" -> Tsp (if paper then Tsp.paper_params else Tsp.default_params)
  | other ->
    invalid_arg
      (Printf.sprintf "unknown app %S (%s)" other (String.concat "|" names))

module Make (D : Mp_dsm.Dsm_intf.S) = struct
  module Sor_d = Sor.Make (D)
  module Is_d = Is.Make (D)
  module Water_d = Water.Make (D)
  module Lu_d = Lu.Make (D)
  module Tsp_d = Tsp.Make (D)

  (** Allocate and initialize the app's shared data and spawn its threads;
      the result checks the finished run against the sequential reference. *)
  let setup (t : D.t) = function
    | Sor p ->
      let h = Sor_d.setup t p in
      fun () -> Sor_d.verify h
    | Is p ->
      let h = Is_d.setup t p in
      fun () -> Is_d.verify h
    | Water p ->
      let h = Water_d.setup t p in
      fun () -> Water_d.verify h
    | Lu p ->
      let h = Lu_d.setup t p in
      fun () -> Lu_d.verify h
    | Tsp p ->
      let h = Tsp_d.setup t p in
      fun () -> Tsp_d.verify h
end
