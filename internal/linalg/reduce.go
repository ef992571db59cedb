package linalg

// ReduceTree merges the given partial vectors into parts[0] with an ordered
// binary tree reduction: pass 1 folds parts[1] into parts[0], parts[3] into
// parts[2], ...; pass 2 folds parts[2] into parts[0], parts[6] into parts[4];
// and so on until one vector remains. The merge order depends only on
// len(parts), never on timing, so for a fixed partitioning the result is
// bit-identical run-to-run and independent of how many goroutines produced
// the partials. It returns parts[0] (nil for an empty slice).
//
// The engine's parallel executor reduces per-shard gradient accumulators with
// exactly this shape; the serial path reduces the same shard partials the
// same way, which is what makes Workers=1 and Workers=N bitwise equal.
func ReduceTree(parts []Vector) Vector {
	if len(parts) == 0 {
		return nil
	}
	for stride := 1; stride < len(parts); stride *= 2 {
		for i := 0; i+stride < len(parts); i += 2 * stride {
			parts[i].Add(parts[i+stride])
		}
	}
	return parts[0]
}
