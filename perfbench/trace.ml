(* Spans recorded by the benchmark around its own calls into each layer.

   The harness calls the layers one after another, so spans never nest or
   overlap: a layer's self time is the sum of its span durations.  Spans
   live in preallocated int arrays and are written out when the run ends;
   recording one costs two clock reads and four array stores, and never
   allocates, so a traced run does the same allocation work as an
   untraced one. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type layer = Server | Wm | Client_app | Wire_submit | Wire_flush

let layers = [| Server; Wm; Client_app; Wire_submit; Wire_flush |]

let layer_index = function
  | Server -> 0
  | Wm -> 1
  | Client_app -> 2
  | Wire_submit -> 3
  | Wire_flush -> 4

let layer_name = function
  | Server -> "server"
  | Wm -> "wm"
  | Client_app -> "client_app"
  | Wire_submit -> "wire_conn.submit"
  | Wire_flush -> "wire_conn.flush"

let enabled = ref false
let capacity = ref 0
let len = ref 0
let dropped = ref 0
let s_layer = ref [||]
let s_start = ref [||]
let s_end = ref [||]
let s_item = ref [||]

(* The item (op or gesture boundary) the next spans belong to, numbered
   across the run. *)
let current_item = ref 0
let items_seen = ref 0

(* Allocate room for [spans]; recording starts when [enabled] is set. *)
let arm ~spans =
  capacity := spans;
  len := 0;
  dropped := 0;
  s_layer := Array.make spans 0;
  s_start := Array.make spans 0;
  s_end := Array.make spans 0;
  s_item := Array.make spans 0

(* [enter ()] then [leave layer t0] around one call into a layer.  Disarmed,
   this is one flag check per call. *)
let enter () = if !enabled then now_ns () else 0

let leave layer t0 =
  if !enabled then begin
    let t1 = now_ns () in
    let i = !len in
    if i < !capacity then begin
      !s_layer.(i) <- layer_index layer;
      !s_start.(i) <- t0;
      !s_end.(i) <- t1;
      !s_item.(i) <- !current_item;
      len := i + 1
    end
    else incr dropped
  end

(* Total span time per layer, in ns, indexed like [layers]. *)
let self_ns () =
  let acc = Array.make (Array.length layers) 0 in
  for i = 0 to !len - 1 do
    let l = !s_layer.(i) in
    acc.(l) <- acc.(l) + (!s_end.(i) - !s_start.(i))
  done;
  acc

let write path =
  let oc = open_out path in
  output_string oc "layer\tstart_ns\tend_ns\titem\n";
  for i = 0 to !len - 1 do
    Printf.fprintf oc "%s\t%d\t%d\t%d\n"
      (layer_name layers.(!s_layer.(i)))
      !s_start.(i) !s_end.(i) !s_item.(i)
  done;
  close_out oc
