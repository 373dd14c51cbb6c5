module Checksum = Natix_store.Checksum

let version = 2
let min_version = 1
let magic = "NTXS"

let u32 v =
  String.init 4 (fun i -> Char.chr ((v lsr ((3 - i) * 8)) land 0xff))

let u32_of s =
  (Char.code s.[0] lsl 24)
  lor (Char.code s.[1] lsl 16)
  lor (Char.code s.[2] lsl 8)
  lor Char.code s.[3]

let header_for v = magic ^ String.init 2 (fun i -> Char.chr ((v lsr ((1 - i) * 8)) land 0xff))
let header = header_for version

type frame = { seq : int; trace_id : string option; payload : string }

let max_payload = 1 lsl 26
let max_trace_id = 255

let write_header write = write header

let read_header read =
  match read (String.length header) with
  | exception End_of_file -> Error "connection closed before the stream header"
  | h ->
    if String.sub h 0 4 <> magic then Error "bad stream magic"
    else
      let v = (Char.code h.[4] lsl 8) lor Char.code h.[5] in
      if v < min_version || v > version then
        Error (Printf.sprintf "protocol version %d, expected %d..%d" v min_version version)
      else Ok v

(* CRC over the seq bytes, then (v2) the trace-id length byte and trace
   bytes, then the payload — chained through [~init] the way the WAL
   chains record checksums.  [trace] is the already-framed trace field
   ("" at v1). *)
let crc ~seq ~trace payload =
  Checksum.crc32_string ~init:(Checksum.crc32_string ~init:(Checksum.crc32_string (u32 seq)) trace)
    payload

let trace_field version trace_id =
  match version with
  | 1 -> ""
  | 2 ->
    let id = Option.value ~default:"" trace_id in
    if String.length id > max_trace_id then invalid_arg "Protocol.write_frame: trace id too large";
    String.make 1 (Char.chr (String.length id)) ^ id
  | v -> invalid_arg (Printf.sprintf "Protocol.write_frame: unknown version %d" v)

let write_frame ?version:(v = version) ?trace_id write ~seq payload =
  if String.length payload > max_payload then invalid_arg "Protocol.write_frame: payload too large";
  let trace = trace_field v trace_id in
  let seq = seq land 0xffff_ffff in
  write (u32 (String.length payload));
  write (u32 seq);
  if trace <> "" then write trace;
  write payload;
  write (u32 (crc ~seq ~trace payload))

let read_frame ?version:(v = version) read =
  match read 4 with
  | exception End_of_file -> Ok None
  | len_bytes -> (
    let len = u32_of len_bytes in
    if len > max_payload then
      Error (Printf.sprintf "frame length %d exceeds the %d-byte limit" len max_payload)
    else
      match
        let seq = u32_of (read 4) in
        let trace =
          if v < 2 then ""
          else
            let tlen = Char.code (read 1).[0] in
            String.make 1 (Char.chr tlen) ^ read tlen
        in
        let payload = read len in
        let got = u32_of (read 4) in
        (seq, trace, payload, got)
      with
      | exception End_of_file -> Error "truncated frame"
      | seq, trace, payload, got ->
        if got <> crc ~seq ~trace payload then
          Error (Printf.sprintf "CRC mismatch on frame %d" seq)
        else
          let trace_id =
            if String.length trace <= 1 then None else Some (String.sub trace 1 (String.length trace - 1))
          in
          Ok (Some { seq; trace_id; payload }))

let read_exactly fd n =
  let buf = Bytes.create n in
  let rec go off =
    if off >= n then Bytes.unsafe_to_string buf
    else
      match Unix.read fd buf off (n - off) with
      | 0 -> raise End_of_file
      | k -> go (off + k)
  in
  go 0

let write_all fd s =
  let buf = Bytes.unsafe_of_string s in
  let n = Bytes.length buf in
  let rec go off = if off < n then go (off + Unix.write fd buf off (n - off)) in
  go 0
