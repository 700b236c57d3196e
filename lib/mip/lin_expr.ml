(* Expressions are kept as an unsorted term list plus a constant and combined
   lazily: building is O(1) per operation, and [normalize] merges duplicates
   once when the expression is consumed. *)

type t = { terms : (float * int) list; const : float }

let zero = { terms = []; const = 0.0 }

let constant c = { terms = []; const = c }

let term c v = { terms = [ (c, v) ]; const = 0.0 }

let var v = term 1.0 v

let add a b = { terms = List.rev_append a.terms b.terms; const = a.const +. b.const }

let scale k e =
  if k = 0.0 then { zero with const = 0.0 }
  else { terms = List.map (fun (c, v) -> (k *. c, v)) e.terms; const = k *. e.const }

let sub a b = add a (scale (-1.0) b)

let of_terms ?(constant = 0.0) terms = { terms; const = constant }

let get_constant e = e.const

let normalize e =
  let tbl = Hashtbl.create (max 8 (List.length e.terms)) in
  let merge (c, v) =
    let prev = try Hashtbl.find tbl v with Not_found -> 0.0 in
    Hashtbl.replace tbl v (prev +. c)
  in
  List.iter merge e.terms;
  let combined = Hashtbl.fold (fun v c acc -> if c <> 0.0 then (c, v) :: acc else acc) tbl [] in
  List.sort (fun (_, v1) (_, v2) -> compare v1 v2) combined

let coef e v = List.fold_left (fun acc (c, v') -> if v' = v then acc +. c else acc) 0.0 e.terms

let terms e = normalize e

let num_terms e = List.length (normalize e)

let eval e value_of =
  List.fold_left (fun acc (c, v) -> acc +. (c *. value_of v)) e.const e.terms

let pp ppf e =
  let ts = normalize e in
  if ts = [] then Format.fprintf ppf "%g" e.const
  else begin
    let pp_term first (c, v) =
      if first then Format.fprintf ppf "%gx%d" c v
      else if c >= 0.0 then Format.fprintf ppf " + %gx%d" c v
      else Format.fprintf ppf " - %gx%d" (-.c) v;
      false
    in
    let _ = List.fold_left pp_term true ts in
    if e.const <> 0.0 then Format.fprintf ppf " + %g" e.const
  end
