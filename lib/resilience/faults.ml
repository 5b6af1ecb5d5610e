module Pool = Rar_util.Pool

type profile = Timeout | Badcert | Poolkill | Truncate | Chaos

type config = {
  seed : int;
  profiles : profile list;
  deadline_s : float option;
}

exception Injected of string

let profile_name = function
  | Timeout -> "timeout"
  | Badcert -> "badcert"
  | Poolkill -> "poolkill"
  | Truncate -> "truncate"
  | Chaos -> "chaos"

let profile_of_name = function
  | "timeout" -> Some Timeout
  | "badcert" -> Some Badcert
  | "poolkill" -> Some Poolkill
  | "truncate" -> Some Truncate
  | "chaos" -> Some Chaos
  | _ -> None

let of_string s =
  match String.index_opt s ':' with
  | None -> Error "expected <seed>:<profile>[,<profile>...]"
  | Some i -> (
    let seed_s = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt (String.trim seed_s) with
    | None -> Error (Printf.sprintf "bad seed %S" seed_s)
    | Some seed -> (
      let parts =
        String.split_on_char ',' rest
        |> List.map String.trim
        |> List.filter (fun p -> p <> "")
      in
      if parts = [] then Error "no profiles listed"
      else
        let rec go acc deadline = function
          | [] -> Ok { seed; profiles = List.rev acc; deadline_s = deadline }
          | p :: tl -> (
            match String.index_opt p '=' with
            | Some j when String.sub p 0 j = "deadline" -> (
              let v = String.sub p (j + 1) (String.length p - j - 1) in
              match int_of_string_opt v with
              | Some ms when ms >= 0 ->
                go acc (Some (float_of_int ms /. 1000.)) tl
              | Some _ | None ->
                Error (Printf.sprintf "bad profile %S (want deadline=<ms>)" p))
            | _ -> (
              match profile_of_name p with
              | Some prof -> go (prof :: acc) deadline tl
              | None -> Error (Printf.sprintf "unknown profile %S" p)))
        in
        go [] None parts))

let to_string c =
  Printf.sprintf "%d:%s" c.seed
    (String.concat ","
       (List.map profile_name c.profiles
       @
       match c.deadline_s with
       | None -> []
       | Some s -> [ Printf.sprintf "deadline=%d" (int_of_float (s *. 1000.)) ]))

(* --- active configuration ------------------------------------------ *)

type setting = From_env | Disabled | Forced of config

let setting = ref From_env

(* Read once at module initialisation, before any domain can exist:
   a [lazy] here raced when two domains forced it at once
   ([CamlinternalLazy.Undefined]). *)
let env_config =
  match Sys.getenv_opt "RAR_FAULTS" with
  | None | Some "" -> None
  | Some s -> (
    match of_string s with
    | Ok c -> Some c
    | Error msg ->
      Printf.eprintf "rar: ignoring RAR_FAULTS=%s (%s)\n%!" s msg;
      None)

let active () =
  match !setting with
  | Forced c -> Some c
  | Disabled -> None
  | From_env -> env_config

let set c = setting := Forced c
let disable () = setting := Disabled
let use_env () = setting := From_env

let configure ?(seed = 0) ?deadline_s profiles =
  set { seed; profiles; deadline_s }

(* --- deterministic firing decisions -------------------------------- *)

(* Avalanche mix: fire/no-fire depends only on (seed, site, key), never
   on call order or domain scheduling, so a faulted run is reproducible
   under any job count. *)
let mix a b =
  let h = ref (a lxor (b * 0x9E3779B1)) in
  h := (!h lxor (!h lsr 16)) * 0x85EBCA6B;
  h := (!h lxor (!h lsr 13)) * 0xC2B2AE35;
  h := !h lxor (!h lsr 16);
  !h land max_int

let site_timeout = 1
let site_badcert = 2
let site_truncate = 4
let has c p = List.mem p c.profiles

(* Under [Chaos] a site fires on ~1/4 of the keys; the named profiles
   fire unconditionally so tests get a guaranteed injection. *)
let chaos_fires c site key = mix (mix c.seed site) key mod 4 = 0

let solver_timeout ~key =
  match active () with
  | None -> false
  | Some c -> has c Timeout || (has c Chaos && chaos_fires c site_timeout key)

let flip_certificate ~key =
  match active () with
  | None -> false
  | Some c -> has c Badcert || (has c Chaos && chaos_fires c site_badcert key)

let deadline_s () =
  match active () with None -> None | Some c -> c.deadline_s

let truncate text =
  match active () with
  | Some c when has c Truncate ->
    let n = String.length text in
    if n = 0 then text
    else String.sub text 0 (mix (mix c.seed site_truncate) n mod n)
  | Some _ | None -> text

(* --- pool-kill hook ------------------------------------------------- *)

let pool_hook () =
  match active () with
  | Some c when has c Poolkill ->
    raise (Injected "Faults: pool task killed")
  | Some _ | None -> ()

let install_pool_hook () = Pool.set_task_hook (Some pool_hook)

(* The hook consults the live configuration on every call, so it can be
   installed unconditionally at load time: with no active Poolkill
   profile it is a no-op. *)
let () = install_pool_hook ()
