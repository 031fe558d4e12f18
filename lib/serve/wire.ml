let schema = "xinv-serve/1"
let magic = 0x58535256 (* "XSRV" *)
let version = 1
let max_payload = 64 * 1024 * 1024
let header_bytes = 4 + 1 + 1 + 4 + 16

type error =
  | Truncated
  | Bad_magic of int
  | Bad_version of int
  | Bad_length of int
  | Bad_checksum
  | Bad_tag of int
  | Bad_payload of string
  | Closed

exception Error of error

let error_to_string = function
  | Truncated -> "truncated frame"
  | Bad_magic m -> Printf.sprintf "bad magic 0x%08x (want \"XSRV\")" m
  | Bad_version v -> Printf.sprintf "unsupported protocol version %d" v
  | Bad_length n -> Printf.sprintf "implausible payload length %d" n
  | Bad_checksum -> "payload checksum mismatch"
  | Bad_tag t -> Printf.sprintf "unknown message tag %d" t
  | Bad_payload what -> "bad payload: " ^ what
  | Closed -> "connection closed"

let fail e = raise (Error e)

(* ---- writer ---- *)

type writer = Buffer.t

let writer () = Buffer.create 256
let contents = Buffer.contents
let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let put_u32 b v =
  if v < 0 then invalid_arg "Wire.put_u32: negative";
  put_u8 b (v lsr 24);
  put_u8 b (v lsr 16);
  put_u8 b (v lsr 8);
  put_u8 b v

let put_i64 b v =
  let v = Int64.of_int v in
  for i = 7 downto 0 do
    put_u8 b (Int64.to_int (Int64.shift_right_logical v (8 * i)))
  done

let put_f64 b v =
  let bits = Int64.bits_of_float v in
  for i = 7 downto 0 do
    put_u8 b (Int64.to_int (Int64.shift_right_logical bits (8 * i)))
  done

let put_bool b v = put_u8 b (if v then 1 else 0)

let put_string b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let put_opt b f = function
  | None -> put_u8 b 0
  | Some v ->
      put_u8 b 1;
      f b v

let put_list b f xs =
  put_u32 b (List.length xs);
  List.iter (f b) xs

(* ---- reader ---- *)

type reader = { buf : string; mutable pos : int }

let reader s = { buf = s; pos = 0 }

let get_u8 r =
  if r.pos >= String.length r.buf then fail Truncated;
  let v = Char.code r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  v

let get_u32 r =
  let a = get_u8 r in
  let b = get_u8 r in
  let c = get_u8 r in
  let d = get_u8 r in
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let get_bits64 r =
  let v = ref 0L in
  for _ = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (get_u8 r))
  done;
  !v

let get_i64 r = Int64.to_int (get_bits64 r)
let get_f64 r = Int64.float_of_bits (get_bits64 r)

let get_bool r =
  match get_u8 r with
  | 0 -> false
  | 1 -> true
  | n -> fail (Bad_payload (Printf.sprintf "bool byte %d" n))

let get_string r =
  let n = get_u32 r in
  if n < 0 || n > String.length r.buf - r.pos then fail Truncated;
  let s = String.sub r.buf r.pos n in
  r.pos <- r.pos + n;
  s

let get_opt r f = match get_u8 r with 0 -> None | _ -> Some (f r)

let get_list r f =
  let n = get_u32 r in
  (* Bound by the bytes actually present: every element takes at least one
     byte, so a hostile length can never drive an allocation larger than
     the payload itself. *)
  if n < 0 || n > String.length r.buf - r.pos then fail Truncated;
  List.init n (fun _ -> f r)

let reader_done r = r.pos = String.length r.buf

(* Enums travel as one byte; each is described by one (value, tag) table
   that both directions read. *)
let put_enum w table v = put_u8 w (List.assoc v table)

let get_enum r what table =
  let n = get_u8 r in
  match List.find_opt (fun (_, tag) -> tag = n) table with
  | Some (v, _) -> v
  | None -> fail (Bad_payload (Printf.sprintf "%s %d" what n))

(* ---- frames ---- *)

let encode_frame ~tag payload =
  let n = String.length payload in
  if n > max_payload then invalid_arg "Wire.encode_frame: payload too large";
  let b = Buffer.create (header_bytes + n) in
  put_u32 b magic;
  put_u8 b version;
  put_u8 b tag;
  put_u32 b n;
  Buffer.add_string b (Digest.string payload);
  Buffer.add_string b payload;
  Buffer.contents b

let decode_header h =
  let r = reader h in
  let m = get_u32 r in
  if m <> magic then fail (Bad_magic m);
  let v = get_u8 r in
  if v <> version then fail (Bad_version v);
  let tag = get_u8 r in
  let len = get_u32 r in
  if len < 0 || len > max_payload then fail (Bad_length len);
  (* the digest is the fixed 16 raw bytes, not length-prefixed *)
  let digest = String.sub h 10 16 in
  (tag, len, digest)

let decode_frame s =
  if String.length s < header_bytes then fail Truncated;
  let tag, len, digest = decode_header (String.sub s 0 header_bytes) in
  if String.length s <> header_bytes + len then fail Truncated;
  let payload = String.sub s header_bytes len in
  if not (String.equal (Digest.string payload) digest) then fail Bad_checksum;
  (tag, payload)

(* ---- stream transport ---- *)

let rec write_all fd buf off len =
  if len > 0 then begin
    let n = Unix.write fd buf off len in
    write_all fd buf (off + n) (len - n)
  end

let write_frame fd frame =
  write_all fd (Bytes.unsafe_of_string frame) 0 (String.length frame)

(* [eof_ok] distinguishes a client that hung up between frames (clean
   [Closed]) from one that died mid-frame ([Truncated]). *)
let read_exactly fd n ~eof_ok =
  let buf = Bytes.create n in
  let rec go off =
    if off < n then begin
      let k = Unix.read fd buf off (n - off) in
      if k = 0 then fail (if off = 0 && eof_ok then Closed else Truncated);
      go (off + k)
    end
  in
  go 0;
  Bytes.unsafe_to_string buf

let read_frame fd =
  let h = read_exactly fd header_bytes ~eof_ok:true in
  let tag, len, digest = decode_header h in
  let payload = if len = 0 then "" else read_exactly fd len ~eof_ok:false in
  if not (String.equal (Digest.string payload) digest) then fail Bad_checksum;
  (tag, payload)
