module type KEY = sig
  type t
  type value

  val compare : t -> t -> int
  val value : t -> value
  val name : string
  val limit : int
end

module Make (K : KEY) = struct
  module M = Map.Make (K)

  type key = K.t
  type value = K.value

  (* [values] may be longer than [count] and shared with older snapshots:
     slots below [count] are never written again, and the writer fills
     slot [count] before it publishes the snapshot that covers it. *)
  type snapshot = { index : int M.t; values : K.value array; count : int }
  type t = { lock : Mutex.t; snap : snapshot Atomic.t }

  let create () =
    { lock = Mutex.create (); snap = Atomic.make { index = M.empty; values = [||]; count = 0 } }

  let find t k = M.find_opt k (Atomic.get t.snap).index

  let full () = failwith (Printf.sprintf "%s: full (%d entries)" K.name K.limit)

  (* Under [t.lock], so [t.snap] is stable. *)
  let add t k =
    let s = Atomic.get t.snap in
    match M.find_opt k s.index with
    | Some i -> i
    | None ->
      let i = s.count in
      if i >= K.limit then full ();
      let v = K.value k in
      let values =
        if i < Array.length s.values then s.values
        else begin
          let bigger = Array.make (max 64 (2 * i)) v in
          Array.blit s.values 0 bigger 0 i;
          bigger
        end
      in
      values.(i) <- v;
      Atomic.set t.snap { index = M.add k i s.index; values; count = i + 1 };
      i

  let intern t k =
    match M.find k (Atomic.get t.snap).index with
    | i -> i
    | exception Not_found -> Mutex.protect t.lock (fun () -> add t k)

  let unknown i = invalid_arg (Printf.sprintf "%s: unknown index %d" K.name i)

  let get t i =
    let s = Atomic.get t.snap in
    if i < 0 || i >= s.count then unknown i else Array.unsafe_get s.values i

  let size t = (Atomic.get t.snap).count

  let values t =
    let s = Atomic.get t.snap in
    Array.sub s.values 0 s.count
end
