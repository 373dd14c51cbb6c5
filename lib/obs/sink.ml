type ring = {
  capacity : int;
  items : Event.t option array;
  mutable next : int;  (* slot for the next write *)
  mutable stored : int;  (* total ever written *)
}

type t =
  | Ring of ring
  | Jsonl of { oc : out_channel; buf : Buffer.t; mutable count : int }
  | Callback of { f : Event.t -> unit; mutable count : int }
  | Multi of t list

let ring ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Sink.ring: capacity must be positive";
  Ring { capacity; items = Array.make capacity None; next = 0; stored = 0 }

let jsonl path = Jsonl { oc = open_out path; buf = Buffer.create 256; count = 0 }
let callback f = Callback { f; count = 0 }
let multi sinks = Multi sinks

let rec emit t event =
  match t with
  | Ring r ->
    r.items.(r.next) <- Some event;
    r.next <- (r.next + 1) mod r.capacity;
    r.stored <- r.stored + 1
  | Jsonl j ->
    Buffer.clear j.buf;
    Json.to_buffer j.buf (Event.to_json event);
    Buffer.add_char j.buf '\n';
    Buffer.output_buffer j.oc j.buf;
    j.count <- j.count + 1
  | Callback c ->
    c.f event;
    c.count <- c.count + 1
  | Multi sinks -> List.iter (fun s -> emit s event) sinks

let rec events = function
  | Ring r ->
    let n = min r.stored r.capacity in
    let first = (r.next - n + r.capacity * 2) mod r.capacity in
    List.init n (fun i ->
        match r.items.((first + i) mod r.capacity) with
        | Some e -> e
        | None -> assert false)
  | Jsonl _ | Callback _ -> []
  | Multi sinks -> List.concat_map events sinks

let rec emitted = function
  | Ring r -> r.stored
  | Jsonl j -> j.count
  | Callback c -> c.count
  | Multi sinks -> List.fold_left (fun acc s -> acc + emitted s) 0 sinks

let rec write_json t v =
  match t with
  | Jsonl j ->
    Buffer.clear j.buf;
    Json.to_buffer j.buf v;
    Buffer.add_char j.buf '\n';
    Buffer.output_buffer j.oc j.buf
  | Ring _ | Callback _ -> ()
  | Multi sinks -> List.iter (fun s -> write_json s v) sinks

let rec flush = function
  | Jsonl j -> Stdlib.flush j.oc
  | Ring _ | Callback _ -> ()
  | Multi sinks -> List.iter flush sinks

let rec close = function
  | Ring _ -> ()
  | Jsonl j -> close_out j.oc
  | Callback _ -> ()
  | Multi sinks -> List.iter close sinks
