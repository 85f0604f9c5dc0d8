let block_range ~items ~parts ~part =
  if parts <= 0 || part < 0 || part >= parts then invalid_arg "Partition.block_range";
  let base = items / parts and extra = items mod parts in
  let first = (part * base) + min part extra in
  let len = base + if part < extra then 1 else 0 in
  (first, first + len)

let owner_of ~items ~parts item =
  if item < 0 || item >= items then invalid_arg "Partition.owner_of";
  let rec go part =
    let first, past = block_range ~items ~parts ~part in
    if item >= first && item < past then part else go (part + 1)
  in
  go 0
