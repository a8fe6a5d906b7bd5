(* A 64-byte line is 8 words on 64-bit. *)
let line_words = 8

(* The one [Obj] use in the library.  An [int Atomic.t] is a block
   whose field 0 holds the value, and every atomic primitive touches
   field 0 only, so an [int array] of [line_words] elements is a valid
   atomic cell that occupies a whole line.  [Array.make] allocates it
   in one step with no write barrier ([Obj.new_block] plus
   [Obj.set_field] cost measurably more at setup).  The elements are
   ints, never floats, so the block is never a flat float array.  This
   is the layout OCaml >= 5.2's [Atomic.make_contended] builds; once the
   toolchain reaches 5.2 this function becomes that call. *)
let make (v : int) : int Atomic.t = Obj.magic (Array.make line_words v)

type t = int Atomic.t array

let create n v =
  if n < 0 then invalid_arg "Pad.create: negative length";
  Array.init n (fun _ -> make v)

let cells t = t
let get t i = Atomic.get t.(i)
let length t = Array.length t
