open Shared_mem

type t = int Atomic.t array

let create layout = Array.map Pad.make (Layout.initial_values layout)

let ops t ~pid : Store.ops =
  {
    pid;
    read = (fun c -> Atomic.get t.(Cell.id c));
    write = (fun c v -> Atomic.set t.(Cell.id c) v);
    rmw =
      (fun c f ->
        let cell = t.(Cell.id c) in
        let rec loop () =
          let old = Atomic.get cell in
          if Atomic.compare_and_set cell old (f old) then old else loop ()
        in
        loop ());
    probe = Obs.Probe.null;
  }

let get t c = Atomic.get t.(Cell.id c)
