package engine

import (
	"testing"

	"ml4all/internal/data"
)

// What executor.stockTransformer relies on when it reads the arena instead of
// transforming Raw: for every task's dataset, parsing a raw record under the
// dataset's format gives the arena row it stands for, bit for bit.
func TestRawParsesBackToArenaRowsBitwise(t *testing.T) {
	for _, task := range []data.TaskKind{data.TaskSVM, data.TaskLogisticRegression, data.TaskLinearRegression} {
		ds := taskDataset(t, task, 500)
		for i, raw := range ds.Raw {
			r, ok, err := ds.Format.ParseLine(raw)
			if err != nil || !ok {
				t.Fatalf("%v: line %d: ok=%v err=%v", task, i, ok, err)
			}
			if !data.RowsEqual(r, ds.Row(i)) {
				t.Fatalf("%v: row %d: parsed %v, arena %v", task, i, r, ds.Row(i))
			}
		}
	}
}
