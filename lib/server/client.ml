module Api = Natix.Api

type t = { fd : Unix.file_descr; mutable seq : int; version : int }

let connect ~host ~port ~tenant =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let read = Protocol.read_exactly fd and write = Protocol.write_all fd in
  Protocol.write_header write;
  let version =
    match Protocol.read_header read with
    | Ok peer -> min peer Protocol.version
    | Error msg ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      failwith ("server handshake: " ^ msg)
  in
  Protocol.write_frame write ~version ~seq:0 tenant;
  { fd; seq = 0; version }

let call ?trace_id t req =
  t.seq <- t.seq + 1;
  Protocol.write_frame (Protocol.write_all t.fd) ~version:t.version ~seq:t.seq ?trace_id
    (Api.encode_request req);
  match Protocol.read_frame ~version:t.version (Protocol.read_exactly t.fd) with
  | Ok None -> raise End_of_file
  | Error msg -> failwith ("response frame: " ^ msg)
  | Ok (Some f) ->
    if f.Protocol.seq <> t.seq then
      failwith (Printf.sprintf "response out of order: frame %d, expected %d" f.Protocol.seq t.seq);
    (match Api.decode_response f.Protocol.payload with
    | Ok resp -> resp
    | Error msg -> failwith ("response decode: " ^ msg))

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
