(* churn: a client's window lifecycle over the wire, beside the resident
   clients.  One Wire_conn client repeats a cycle of seven batches: create,
   name, select input and map; five retitles; destroy.  Each batch is one
   op, and the client drains its replies after the WM has stepped. *)

open Fixture
module Wire = Swm_xlib.Wire
module Wire_conn = Swm_xlib.Wire_conn
module Event = Swm_xlib.Event
module Prop = Swm_xlib.Prop
module Wobj = Swm_oi.Wobj

let ops_per_cycle = Gen.retitles + 2

type st = {
  fx : Fixture.t;
  wc : Wire_conn.t;
  root : Xid.t;
  cycles : Gen.cycle array;
  baseline : int;  (** managed clients with no churned window alive *)
  mutable n : int;  (** ops prepared so far *)
  mutable wid : Xid.t;  (** the churned window, client id space *)
  mutable bytes : string;
  mutable expect : int;  (** requests in [bytes] *)
  mutable result : (int, Wire_conn.submit_error) result;
}

let cycle st = st.cycles.(st.n / ops_per_cycle mod Array.length st.cycles)
let stage st = st.n mod ops_per_cycle

let prepare st () =
  let c = cycle st in
  let name k = Wire.Change_property { window = st.wid; name = Prop.wm_name; value = c.titles.(k) } in
  let reqs =
    match stage st with
    | 0 ->
        st.wid <- Wire_conn.fresh_id st.wc;
        [
          Wire.Create_window
            { wid = st.wid; parent = st.root; geom = c.geom; border = 1;
              override_redirect = false };
          name 0;
          Wire.Select_input
            { window = st.wid; masks = [ Event.Structure_notify; Event.Exposure_mask ] };
          Wire.Map_window st.wid;
        ]
    | k when k <= Gen.retitles -> [ name k ]
    | _ -> [ Wire.Destroy_window st.wid ]
  in
  st.bytes <- String.concat "" (List.map Wire.encode_request reqs);
  st.expect <- List.length reqs;
  true

let exec st () =
  let t0 = Trace.enter () in
  st.result <- Wire_conn.submit_bytes st.wc st.bytes;
  Trace.leave Trace.Wire_submit t0;
  wm_step st.fx;
  let t0 = Trace.enter () in
  let reply = Wire_conn.flush_batch_bytes st.wc in
  Trace.leave Trace.Wire_flush t0;
  acc.wire_bytes <- acc.wire_bytes + String.length st.bytes + String.length reply

let managed_count st = Xid.Tbl.length st.fx.ctx.Ctx.clients

let title_is st title =
  match Wire_conn.resolve st.wc st.wid with
  | None -> false
  | Some sid -> (
      match Wm.find_client st.fx.ctx sid with
      | Some { Ctx.deco = Some deco; _ } -> (
          match Wobj.find_descendant deco ~name:"name" with
          | Some name -> Wobj.label name = title
          | None -> false)
      | Some _ | None -> false)

(* Every mapped window is managed and decorated and shows its last
   WM_NAME; a destroy brings the managed count back to the baseline. *)
let check st () =
  let c = cycle st in
  let k = stage st in
  st.n <- st.n + 1;
  st.result = Ok st.expect
  &&
  match k with
  | 0 ->
      managed_count st = st.baseline + 1
      && title_is st c.titles.(0)
      && (match Wire_conn.resolve st.wc st.wid with
         | Some sid -> Server.is_viewable st.fx.server sid
         | None -> false)
  | k when k <= Gen.retitles -> title_is st c.titles.(k)
  | _ ->
      managed_count st = st.baseline
      && (match Wire_conn.resolve st.wc st.wid with
         | Some sid -> not (Server.window_exists st.fx.server sid)
         | None -> false)

let session (g : Gen.churn) ~start fx =
  let wc = Wire_conn.create fx.server ~name:"churn" in
  let st =
    {
      fx;
      wc;
      root = Wire_conn.root_id wc ~screen:0;
      cycles = g.cycles;
      baseline = Xid.Tbl.length fx.ctx.Ctx.clients;
      n = start * ops_per_cycle;
      wid = Xid.none;
      bytes = "";
      expect = 0;
      result = Ok 0;
    }
  in
  let shared = shared_failures fx in
  {
    fx;
    prepare = prepare st;
    exec = exec st;
    check = (fun () -> let ok = check st () in shared () && ok);
    final_check =
      (fun () ->
        let alive = if stage st = 0 then 0 else 1 in
        ledger_balanced fx && managed_count st = st.baseline + alive);
  }
