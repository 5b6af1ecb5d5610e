type t = { file : string option; line : int; col : int; msg : string }

let make ?file ?(line = 0) ?(col = 0) msg = { file; line; col; msg }

let to_string d =
  let b = Buffer.create 64 in
  (match d.file with
  | Some f ->
    Buffer.add_string b f;
    Buffer.add_char b ':'
  | None -> ());
  if d.line > 0 then begin
    Buffer.add_string b (string_of_int d.line);
    Buffer.add_char b ':';
    if d.col > 0 then begin
      Buffer.add_string b (string_of_int d.col);
      Buffer.add_char b ':'
    end
  end;
  if Buffer.length b > 0 then Buffer.add_char b ' ';
  Buffer.add_string b d.msg;
  Buffer.contents b

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Ok text
  | exception Sys_error msg -> Error (make msg)
