type t = { scheme : string; path : string }

exception Bad_uri of string

let scheme_char c =
  (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '+' || c = '.' || c = '-'

let parse s =
  let sep = "://" in
  let n = String.length s in
  let rec find i =
    if i + String.length sep > n then raise (Bad_uri s)
    else if String.sub s i (String.length sep) = sep then i
    else find (i + 1)
  in
  let i = find 0 in
  if i = 0 then raise (Bad_uri s);
  let scheme = String.sub s 0 i in
  String.iter (fun c -> if not (scheme_char c) then raise (Bad_uri s)) scheme;
  { scheme; path = String.sub s (i + 3) (n - i - 3) }

let service s = (parse s).scheme
