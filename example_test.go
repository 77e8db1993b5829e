package decvec_test

import (
	"context"
	"fmt"

	"decvec"
)

// ExampleWorkload_RunDVA reproduces the paper's headline comparison for one
// program at one latency.
func ExampleWorkload_RunDVA() {
	w, err := decvec.LoadWorkload("TRFD")
	if err != nil {
		panic(err)
	}
	cfg := decvec.DefaultConfig(100)
	refRes, _ := w.RunREF(cfg)
	dvaRes, _ := w.RunDVA(cfg)
	fmt.Printf("TRFD at latency 100: speedup %.2fx\n",
		float64(refRes.Cycles)/float64(dvaRes.Cycles))
	// Output: TRFD at latency 100: speedup 1.58x
}

// ExampleBypassConfig shows the §7 store-to-load bypass cutting memory
// traffic on a spill-heavy program.
func ExampleBypassConfig() {
	w, err := decvec.LoadWorkload("DYFESM")
	if err != nil {
		panic(err)
	}
	plain, _ := w.RunDVA(decvec.DefaultConfig(30))
	byp, _ := w.RunDVA(decvec.BypassConfig(30, 256, 16))
	cut := 100 * float64(plain.Traffic.Total()-byp.Traffic.Total()) / float64(plain.Traffic.Total())
	fmt.Printf("DYFESM: %d bypasses, traffic cut %.0f%%\n", byp.Bypasses, cut)
	// Output: DYFESM: 576 bypasses, traffic cut 27%
}

// ExampleRunExperimentCtx regenerates one of the paper's figures as text.
func ExampleRunExperimentCtx() {
	out, err := decvec.RunExperimentCtx(context.Background(), decvec.NewSuite(0.5), "fig8")
	if err != nil {
		panic(err)
	}
	// The report is a full table; print just its title line.
	for i := 0; i < len(out); i++ {
		if out[i] == '\n' {
			fmt.Println(out[:i])
			break
		}
	}
	// Output: Figure 8: total memory traffic, DVA 256/16 vs BYP 256/16 (elements, L=30)
}

// ExampleWorkload_Stats shows the Table 1 characteristics of a program
// model.
func ExampleWorkload_Stats() {
	w, err := decvec.LoadWorkload("BDNA")
	if err != nil {
		panic(err)
	}
	st := w.Stats()
	fmt.Printf("BDNA: %.1f%% vectorized, average vector length %.0f\n",
		100*st.Vectorization(), st.AvgVL())
	// Output: BDNA: 86.8% vectorized, average vector length 81
}
