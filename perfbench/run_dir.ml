(* Scratch space of one run: .perfbench-run/<pid> under the working
   directory, removed with everything in it when the run ends. *)

let root = ".perfbench-run"

let rec remove path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_dir f =
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  let dir = Filename.concat root (string_of_int (Unix.getpid ())) in
  remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      remove dir;
      (* Leave the parent only if another run still uses it. *)
      try Sys.rmdir root with Sys_error _ -> ())
    (fun () -> f dir)

(* Peak resident set size of this process, from VmHWM in
   /proc/self/status, in MiB. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | status ->
      let kb =
        List.find_map
          (fun line ->
            match String.split_on_char ':' line with
            | [ "VmHWM"; rest ] ->
                int_of_string_opt
                  (List.hd (String.split_on_char ' ' (String.trim rest)))
            | _ -> None)
          (String.split_on_char '\n' status)
      in
      float_of_int (Option.value kb ~default:0) /. 1024.0
