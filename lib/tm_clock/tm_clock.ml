type scheme = Gv1 | Gv5 | Gv6

let scheme_to_string = function Gv1 -> "gv1" | Gv5 -> "gv5" | Gv6 -> "gv6"

let scheme_of_string s =
  match String.lowercase_ascii s with
  | "gv1" | "eager" -> Gv1
  | "gv5" | "delayed" -> Gv5
  | "gv6" | "adaptive" -> Gv6
  | _ ->
      invalid_arg
        (Printf.sprintf "unknown clock scheme %S (expected gv1, gv5 or gv6)"
           s)

(* GV6 adaptation: a fixed-size window of commit/validation-failure
   events. A failure rate of half or more flips to the GV1 protocol
   (every spurious failure is real wasted work), a quarter or less flips
   back to GV5 (the cell-write savings dominate); the gap between the
   thresholds is the hysteresis band that stops the switch from
   thrashing. Deterministic by construction: the decision depends only
   on the event sequence, never on host time or randomness. *)
let window = 64

type t = {
  scheme : scheme;
  mutable effective : scheme;  (* Gv1 or Gv5, never Gv6 *)
  mutable bumps : int;
  mutable skipped : int;
  mutable switches : int;
  mutable win_events : int;
  mutable win_fails : int;
}

let create scheme =
  {
    scheme;
    (* GV6 starts on the optimistic side: skip cell writes until the
       failure rate proves they were cheaper *)
    effective = (match scheme with Gv1 -> Gv1 | Gv5 | Gv6 -> Gv5);
    bumps = 0;
    skipped = 0;
    switches = 0;
    win_events = 0;
    win_fails = 0;
  }

let scheme t = t.scheme
let effective t = t.effective
let bumps t = t.bumps
let skipped t = t.skipped
let switches t = t.switches

let close_window t =
  if t.scheme = Gv6 && t.win_events >= window then begin
    let want =
      if 2 * t.win_fails >= t.win_events then Gv1
      else if 4 * t.win_fails <= t.win_events then Gv5
      else t.effective
    in
    if want <> t.effective then begin
      t.effective <- want;
      t.switches <- t.switches + 1
    end;
    t.win_events <- 0;
    t.win_fails <- 0
  end

let note_cell_write t = t.bumps <- t.bumps + 1
let note_skip t = t.skipped <- t.skipped + 1

let note_commit t =
  t.win_events <- t.win_events + 1;
  close_window t

let note_validation_failure t =
  t.win_events <- t.win_events + 1;
  t.win_fails <- t.win_fails + 1;
  close_window t;
  t.effective = Gv5
