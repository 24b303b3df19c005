(* Request-scoped trace identity: a short hex id minted from Rng and an
   optional parent id. The id travels down a request's stack as the
   attrs of its root span (Span.trace_attrs), so this module only mints,
   validates and renders ids. *)

let id_length = 16
let hex = "0123456789abcdef"

type t = { id : string; parent : string option }

let scheme =
  Printf.sprintf
    "splitmix64((seed lsl 24) lxor seq) -> %d lowercase hex chars" id_length

let is_valid_id s =
  let n = String.length s in
  n >= 4 && n <= 64
  && String.for_all (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) s

let mint rng = String.init id_length (fun _ -> hex.[Rng.int rng 16])

let mint_deterministic ~seed ~seq = mint (Rng.create ((seed lsl 24) lxor seq))

let make ?parent id = { id; parent }

let of_id ?parent id = if is_valid_id id then Some (make ?parent id) else None

let to_attrs t =
  ("trace_id", t.id)
  :: (match t.parent with Some p -> [ ("trace_parent", p) ] | None -> [])
