type t = Eager | Lazy | Lazy_safe

let to_string = function
  | Eager -> "eager"
  | Lazy -> "lazy"
  | Lazy_safe -> "lazy-safe"

let of_string s =
  match String.lowercase_ascii s with
  | "eager" -> Eager
  | "lazy" -> Lazy
  | "lazy-safe" | "lazy_safe" | "safe" -> Lazy_safe
  | _ ->
      invalid_arg
        (Printf.sprintf
           "unknown subscription policy %S (expected eager, lazy or \
            lazy-safe)"
           s)
