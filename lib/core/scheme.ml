(* Synchronisation schemes under evaluation (the legend of Figures 5-9). *)

open Htm_sim

type kind =
  | Gil_only  (** original CRuby: the Giant VM Lock *)
  | Htm_fixed of int  (** HTM-1 / HTM-16 / HTM-256: fixed transaction length *)
  | Htm_dynamic  (** the paper's dynamic transaction-length adjustment *)
  | Hybrid
      (** HTM with a software-transactional fallback: persistent/capacity
          aborts retry as STM transactions; the GIL remains the last-resort
          escape for blocking I/O and explicit aborts *)
  | Stm_only  (** every window runs as a software transaction *)
  | Fine_grained  (** JRuby-style fine-grained locking (Figure 9 baseline) *)
  | Free_parallel  (** Java-style free parallelism (Figure 9 baseline) *)

let to_string = function
  | Gil_only -> "GIL"
  | Htm_fixed n -> Printf.sprintf "HTM-%d" n
  | Htm_dynamic -> "HTM-dynamic"
  | Hybrid -> "hybrid"
  | Stm_only -> "stm"
  | Fine_grained -> "fine-grained"
  | Free_parallel -> "free-parallel"

let accepted_names =
  "gil, htm-N, htm-dynamic, hybrid, stm, fine-grained (jruby), \
   free-parallel (java)"

let of_string s =
  match String.lowercase_ascii s with
  | "gil" -> Gil_only
  | "htm-dynamic" | "dynamic" -> Htm_dynamic
  | "hybrid" | "htm-stm" -> Hybrid
  | "stm" | "stm-only" -> Stm_only
  | "fine" | "jruby" | "fine-grained" -> Fine_grained
  | "free" | "java" | "free-parallel" -> Free_parallel
  | l -> (
      let fixed =
        match String.index_opt l '-' with
        | Some i when String.sub l 0 i = "htm" ->
            int_of_string_opt (String.sub l (i + 1) (String.length l - i - 1))
        | _ -> None
      in
      match fixed with
      | Some n -> Htm_fixed n
      | None ->
          invalid_arg
            (Printf.sprintf "Scheme.of_string: %s (accepted: %s)" s
               accepted_names))

let uses_htm = function
  | Htm_fixed _ | Htm_dynamic | Hybrid -> true
  | Gil_only | Stm_only | Fine_grained | Free_parallel -> false

let uses_stm = function
  | Hybrid | Stm_only -> true
  | Gil_only | Htm_fixed _ | Htm_dynamic | Fine_grained | Free_parallel ->
      false

let htm_mode = function
  | Htm_fixed _ | Htm_dynamic | Hybrid -> Htm.Htm_mode
  | Gil_only | Stm_only -> Htm.Plain
  | Fine_grained | Free_parallel -> Htm.Coherent

(* Adjust VM options to match the execution model: the Figure 9 baselines
   use TLAB-style allocation and never GC; JRuby additionally bumps a shared
   allocation counter, its residual internal bottleneck. *)
let adjust_options kind (opts : Rvm.Options.t) : Rvm.Options.t =
  match kind with
  | Fine_grained ->
      { opts with ephemeral_alloc = true; alloc_coherence_counter = true }
  | Free_parallel -> { opts with ephemeral_alloc = true }
  | Gil_only | Htm_fixed _ | Htm_dynamic | Hybrid | Stm_only -> opts
