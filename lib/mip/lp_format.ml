let sanitize name =
  (* LP-format identifiers must avoid operators and cannot start with a
     digit or a letter 'e' followed by a digit; a conservative mangle keeps
     names readable. *)
  let buf = Buffer.create (String.length name) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' -> Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    name;
  let s = Buffer.contents buf in
  if s = "" then "_"
  else
    match s.[0] with
    | '0' .. '9' | '.' -> "v" ^ s
    | _ -> s

let write_terms buf names cols coefs =
  let n = Array.length cols in
  if n = 0 then Buffer.add_string buf "0";
  for k = 0 to n - 1 do
    let c = coefs.(k) in
    if k = 0 then
      if c < 0.0 then Buffer.add_string buf (Printf.sprintf "- %.12g %s" (-.c) (sanitize names.(cols.(k))))
      else Buffer.add_string buf (Printf.sprintf "%.12g %s" c (sanitize names.(cols.(k))))
    else if c < 0.0 then
      Buffer.add_string buf (Printf.sprintf " - %.12g %s" (-.c) (sanitize names.(cols.(k))))
    else Buffer.add_string buf (Printf.sprintf " + %.12g %s" c (sanitize names.(cols.(k))))
  done

let to_buffer buf (std : Model.std) =
  Buffer.add_string buf "Minimize\n obj: ";
  let ocols = ref [] and ocoefs = ref [] in
  for j = std.nvars - 1 downto 0 do
    if std.obj.(j) <> 0.0 then begin
      ocols := j :: !ocols;
      ocoefs := std.obj.(j) :: !ocoefs
    end
  done;
  if !ocols = [] then Buffer.add_string buf "0"
  else write_terms buf std.var_names (Array.of_list !ocols) (Array.of_list !ocoefs);
  Buffer.add_string buf "\nSubject To\n";
  for i = 0 to std.nrows - 1 do
    Buffer.add_string buf (Printf.sprintf " %s: " (sanitize std.row_names.(i)));
    if Array.length std.row_cols.(i) = 0 then Buffer.add_string buf "0"
    else write_terms buf std.var_names std.row_cols.(i) std.row_coefs.(i);
    let op = match std.row_sense.(i) with Model.Le -> "<=" | Model.Ge -> ">=" | Model.Eq -> "=" in
    Buffer.add_string buf (Printf.sprintf " %s %.12g\n" op std.rhs.(i))
  done;
  Buffer.add_string buf "Bounds\n";
  for j = 0 to std.nvars - 1 do
    let name = sanitize std.var_names.(j) in
    let lo = std.lb.(j) and hi = std.ub.(j) in
    if lo = hi then Buffer.add_string buf (Printf.sprintf " %s = %.12g\n" name lo)
    else begin
      let lo_s = if Float.is_finite lo then Printf.sprintf "%.12g" lo else "-inf" in
      let hi_s = if Float.is_finite hi then Printf.sprintf "%.12g" hi else "+inf" in
      Buffer.add_string buf (Printf.sprintf " %s <= %s <= %s\n" lo_s name hi_s)
    end
  done;
  let ints = ref [] in
  for j = std.nvars - 1 downto 0 do
    if std.integer.(j) then ints := j :: !ints
  done;
  if !ints <> [] then begin
    Buffer.add_string buf "General\n";
    List.iter (fun j -> Buffer.add_string buf (Printf.sprintf " %s\n" (sanitize std.var_names.(j)))) !ints
  end;
  Buffer.add_string buf "End\n"

let to_string std =
  let buf = Buffer.create 4096 in
  to_buffer buf std;
  Buffer.contents buf
