type t = { mutable n : int }

let create () = { n = 0 }
let incr t = t.n <- t.n + 1
let add t v = t.n <- t.n + v
let set t v = t.n <- v
let get t = t.n
let reset t = t.n <- 0
let merge ~into src = into.n <- into.n + src.n
