package decvec_test

import (
	"context"
	"fmt"

	"decvec"
)

// ExampleWorkload_RunDVA reproduces the paper's headline comparison for one
// program at one latency: decoupling cuts the cycles the machine spends
// with every unit idle, and moves it toward the IDEAL lower bound.
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
	fmt.Printf("  REF %d, DVA %d, ideal lower bound %d cycles\n",
		refRes.Cycles, dvaRes.Cycles, w.IdealCycles())
	fmt.Printf("  cycles with every unit idle: REF %d, DVA %d (%.1fx fewer)\n",
		refRes.States.Idle(), dvaRes.States.Idle(),
		float64(refRes.States.Idle())/float64(dvaRes.States.Idle()))
	// Output:
	// TRFD at latency 100: speedup 1.58x
	//   REF 138283, DVA 87637, ideal lower bound 34479 cycles
	//   cycles with every unit idle: REF 95373, DVA 40516 (2.4x fewer)
}

// ExampleWorkload_RunREF is a Figure 3-style latency sweep for one
// program: the REF curve climbs with memory latency while the DVA stays
// nearly flat, because the address processor slips ahead and loads data
// before the vector processor needs it.
func ExampleWorkload_RunREF() {
	w, err := decvec.LoadWorkload("TRFD")
	if err != nil {
		panic(err)
	}
	fmt.Println("latency       REF       DVA  speedup")
	for _, l := range []int64{1, 50, 100} {
		r, _ := w.RunREF(decvec.DefaultConfig(l))
		d, _ := w.RunDVA(decvec.DefaultConfig(l))
		fmt.Printf("%7d %9d %9d  %.2fx\n", l, r.Cycles, d.Cycles, float64(r.Cycles)/float64(d.Cycles))
	}
	// Output:
	// latency       REF       DVA  speedup
	//       1     59790     51698  1.16x
	//      50     98233     67430  1.46x
	//     100    138283     87637  1.58x
}

// ExampleBypassConfig shows the §7 store-to-load bypass on a spill-heavy
// program: a load identical to a store still in the store queue is served
// from the queue, cutting memory traffic, and eight store-queue slots
// capture nearly all of the benefit of sixteen.
func ExampleBypassConfig() {
	w, err := decvec.LoadWorkload("DYFESM")
	if err != nil {
		panic(err)
	}
	plain, _ := w.RunDVA(decvec.DefaultConfig(30))
	fmt.Printf("DYFESM: DVA %d cycles, %d memory elements\n", plain.Cycles, plain.Traffic.Total())
	for _, qs := range [][2]int{{4, 4}, {4, 8}, {4, 16}, {256, 16}} {
		byp, _ := w.RunDVA(decvec.BypassConfig(30, qs[0], qs[1]))
		cut := 100 * float64(plain.Traffic.Total()-byp.Traffic.Total()) / float64(plain.Traffic.Total())
		fmt.Printf("  BYP %d/%d: %+.1f%% speed, %d bypasses, traffic cut %.0f%%\n", qs[0], qs[1],
			100*(float64(plain.Cycles)/float64(byp.Cycles)-1), byp.Bypasses, cut)
	}
	// Output:
	// DYFESM: DVA 90505 cycles, 59254 memory elements
	//   BYP 4/4: +21.2% speed, 576 bypasses, traffic cut 27%
	//   BYP 4/8: +22.6% speed, 576 bypasses, traffic cut 27%
	//   BYP 4/16: +22.6% speed, 576 bypasses, traffic cut 27%
	//   BYP 256/16: +22.6% speed, 576 bypasses, traffic cut 27%
}

// ExampleSimulatedWorkloads sizes the AVDQ as §6 does: most programs rarely
// hold more than four vectors in the load queue, so shrinking it to four
// slots costs them little; SPEC77's load bursts use the depth.
func ExampleSimulatedWorkloads() {
	fmt.Println("program  AVDQ mean/max  cycles at 4 slots vs 256")
	for _, name := range decvec.SimulatedWorkloads() {
		w, err := decvec.LoadWorkload(name)
		if err != nil {
			panic(err)
		}
		deep, _ := w.RunDVA(decvec.BypassConfig(100, 256, 16))
		small, _ := w.RunDVA(decvec.BypassConfig(100, 4, 16))
		fmt.Printf("%-8s %6.2f/%-6d %+.1f%%\n", name, deep.AVDQBusy.Mean(), deep.AVDQBusy.Max(),
			100*(float64(small.Cycles)/float64(deep.Cycles)-1))
	}
	// Output:
	// program  AVDQ mean/max  cycles at 4 slots vs 256
	// ARC2D      1.98/9      +1.0%
	// FLO52      2.65/7      +0.7%
	// BDNA       0.89/4      +0.0%
	// TRFD       1.29/7      +1.4%
	// DYFESM     1.58/7      +0.8%
	// SPEC77     3.06/9      +28.8%
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
