(* Host-time span recorder for the traced run.

   A span is one timed call into a layer of the library: name, layer,
   start and end (wall seconds), minor words allocated across it, its
   parent span and the trial it belongs to. Spans are kept in memory
   and written out at exit as Chrome trace-event JSON (complete "X"
   events, so Perfetto shows the nesting as a flame chart). With the
   recorder off, [with_] is a plain call. *)

type t = {
  id : int;
  parent : int;  (* -1 for a root *)
  layer : string;
  name : string;
  trial : int;  (* -1 outside a trial *)
  t0 : float;
  w0 : float;
  mutable t1 : float;
  mutable w1 : float;
}

let on = ref false
let finished : t list ref = ref []
let stack : t list ref = ref []
let next_id = ref 0
let trial = ref (-1)

let with_trial n f =
  let saved = !trial in
  trial := n;
  Fun.protect ~finally:(fun () -> trial := saved) f

let with_ ~layer ~name f =
  if not !on then f ()
  else begin
    let parent = match !stack with s :: _ -> s.id | [] -> -1 in
    let s =
      {
        id = !next_id; parent; layer; name; trial = !trial;
        t0 = Unix.gettimeofday (); w0 = Gc.minor_words (); t1 = 0.0;
        w1 = 0.0;
      }
    in
    incr next_id;
    stack := s :: !stack;
    let close () =
      s.w1 <- Gc.minor_words ();
      s.t1 <- Unix.gettimeofday ();
      stack := List.tl !stack;
      finished := s :: !finished
    in
    match f () with
    | v -> close (); v
    | exception e -> close (); raise e
  end

let duration s = s.t1 -. s.t0
let words s = s.w1 -. s.w0

(* All finished spans, oldest first. *)
let all () = List.rev !finished

(* Self time of every span: its own interval minus the part its direct
   children cover. *)
let self spans =
  let covered = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (duration s
          +. Option.value ~default:0.0 (Hashtbl.find_opt covered s.parent)))
    spans;
  let children s = Option.value ~default:0.0 (Hashtbl.find_opt covered s.id) in
  List.map (fun s -> (s, duration s -. children s)) spans

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace-event JSON, timestamps in microseconds from the first
   span's start. *)
let to_chrome_json spans =
  let origin =
    List.fold_left (fun m s -> Float.min m s.t0) infinity spans
  in
  let us t = (t -. origin) *. 1e6 in
  let event s =
    Printf.sprintf
      "{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"ts\": %.3f, \"dur\": \
       %.3f, \"pid\": 1, \"tid\": 1, \"args\": {\"span\": %d, \"parent\": \
       %d, \"trial\": %d, \"minor_words\": %.0f}}"
      (json_string s.name) (json_string s.layer) (us s.t0)
      (duration s *. 1e6) s.id s.parent s.trial (words s)
  in
  "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
  ^ "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, \
     \"args\": {\"name\": \"perfbench host\"}}"
  ^ String.concat "" (List.map (fun s -> ",\n" ^ event s) spans)
  ^ "\n]}\n"
