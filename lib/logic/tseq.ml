type t = { width : int; vecs : Vector.t array }

let empty width =
  if width < 0 then invalid_arg "Tseq.empty";
  { width; vecs = [||] }

let of_vectors vecs =
  if Array.length vecs = 0 then invalid_arg "Tseq.of_vectors: empty (use Tseq.empty)";
  let width = Vector.width vecs.(0) in
  Array.iter
    (fun v -> if Vector.width v <> width then invalid_arg "Tseq.of_vectors: width mismatch")
    vecs;
  { width; vecs = Array.copy vecs }

let of_strings = function
  | [] -> invalid_arg "Tseq.of_strings: empty"
  | strings -> of_vectors (Array.of_list (List.map Vector.of_string strings))

let to_strings t = Array.to_list (Array.map Vector.to_string t.vecs)

let length t = Array.length t.vecs
let width t = t.width
let get t i = t.vecs.(i)

let append t v =
  if Vector.width v <> t.width then invalid_arg "Tseq.append: width mismatch";
  { t with vecs = Array.append t.vecs [| v |] }

let concat a b =
  if a.width <> b.width then invalid_arg "Tseq.concat: width mismatch";
  { width = a.width; vecs = Array.append a.vecs b.vecs }

let sub t ~lo ~hi =
  if lo < 0 || hi >= length t || lo > hi then invalid_arg "Tseq.sub: bad range";
  { t with vecs = Array.sub t.vecs lo (hi - lo + 1) }

let omit ?(len = 1) t u =
  let n = length t in
  if u < 0 || u >= n || len < 1 then invalid_arg "Tseq.omit: bad index";
  let stop = min n (u + len) in
  { t with vecs = Array.append (Array.sub t.vecs 0 u) (Array.sub t.vecs stop (n - stop)) }

let repeat t n =
  if n < 1 then invalid_arg "Tseq.repeat: n must be >= 1";
  { t with vecs = Array.concat (List.init n (fun _ -> t.vecs)) }

let map f t = { t with vecs = Array.map f t.vecs }

let complement t = map Vector.complement t
let shift_left_circular t = map Vector.shift_left_circular t

let reverse t =
  let n = length t in
  { t with vecs = Array.init n (fun i -> t.vecs.(n - 1 - i)) }

let equal a b =
  a.width = b.width
  && Array.length a.vecs = Array.length b.vecs
  && Array.for_all2 Vector.equal a.vecs b.vecs

let iter f t = Array.iter f t.vecs
let iteri f t = Array.iteri f t.vecs
let fold_left f init t = Array.fold_left f init t.vecs
let to_array t = Array.copy t.vecs

let random_binary rng ~width ~length =
  { width; vecs = Array.init length (fun _ -> Vector.random_binary rng width) }

let pp fmt t =
  Array.iteri
    (fun i v ->
      if i > 0 then Format.pp_print_newline fmt ();
      Vector.pp fmt v)
    t.vecs
