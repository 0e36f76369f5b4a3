(* The machine's speed at a moment, measured on a fixed piece of work that
   touches nothing of the program under test.

   The benchmark runs on shared hosts whose speed moves by up to a factor
   of two over minutes, which no quantile within one run can remove.  Each
   round therefore times this kernel next to its own work, and the
   end-to-end times are reported at the reference speed: a time is scaled
   by [reference_ns] over the kernel's time in the same round.

   The kernel does what the window manager's work is made of, using the
   standard library only: it hashes keys into a table of 1024 entries,
   looks others up, and formats integers into short strings that die
   young.  So it leans on the same hashing, branches, C calls and minor
   heap as the program.  A kernel that only chased pointers through a
   512 KB cycle tracked the program less well (see README.md). *)

let kernel n =
  let table = Hashtbl.create 64 in
  let acc = ref 0 in
  for i = 1 to n do
    let k = (i * 7919) land 1023 in
    Hashtbl.replace table k (i, string_of_int k);
    match Hashtbl.find_opt table ((k * 31) land 1023) with
    | Some (j, s) -> acc := !acc + j + String.length s
    | None -> ()
  done;
  !acc

(* The kernel's time at the reference speed: about its median on the
   machine the figures in README.md were measured on. *)
let reference_ns = 2_500_000

let time n =
  let t0 = Trace.now_ns () in
  ignore (Sys.opaque_identity (kernel n));
  Trace.now_ns () - t0

let sample () = time 12_000

(* The open loop's ops each follow an idle wait, and their time moves with
   the host in ways the kernel above, run back to back, does not show:
   within a run, rounds whose kernel times agree read open-loop medians
   up to twice apart.  So the open loop also times a short run of the
   kernel in the middle of some of its waits, after the same idle as an
   op, and scales its latencies by [gap_reference_ns] over the median of
   those times (see README.md). *)
let gap_reference_ns = 20_000
let gap_sample () = time 100
