type t = {
  images : Image.t array;
  mem_size : int;
  mem_init : int array;
}

let n_cores t = Array.length t.images

let make ~images ~mem_size ~mem_init =
  if Array.length mem_init > mem_size then
    invalid_arg
      (Printf.sprintf "Program.make: init image of %d words exceeds memory of %d words"
         (Array.length mem_init) mem_size);
  { images; mem_size; mem_init }

let pp ppf t =
  Array.iteri
    (fun core image ->
      Format.fprintf ppf "=== core %d (%d bundles) ===@.%a" core
        (Image.length image) Image.pp image)
    t.images
