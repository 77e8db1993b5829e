package experiments

import (
	"context"

	"decvec/internal/trace"
	"decvec/internal/workload"
)

// Table1Row pairs the paper's Table 1 row for a program with the statistics
// measured on the synthetic trace. Paper counts are in millions of events
// at full scale; measured counts are at the suite's (scaled-down) trace
// size, so the comparable columns are the ratios: percentage vectorization
// and average vector length.
type Table1Row struct {
	Name      string
	Simulated bool
	Paper     workload.PaperRow
	Measured  *trace.Stats
}

// Table1Result is the reproduction of the paper's Table 1.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 computes trace statistics for all thirteen Perfect Club models.
func Table1(ctx context.Context, s *Suite) (*Table1Result, error) {
	res := &Table1Result{}
	rows := make([]Table1Row, len(workload.All))
	err := Parallel(ctx, len(rows), func(i int) error {
		p := workload.All[i]
		rows[i] = Table1Row{
			Name:      p.Name,
			Simulated: p.Simulated,
			Paper:     p.Paper,
			Measured:  s.Stats(p),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}
