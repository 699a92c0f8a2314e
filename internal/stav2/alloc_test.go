package stav2_test

// The allocation gate sits outside package stav2 because it borrows the tv80
// stand-in from internal/experiments, which imports stav2.

import (
	"math/rand"
	"testing"

	"gotaskflow/internal/experiments"
	"gotaskflow/internal/sta"
	"gotaskflow/internal/stav2"
)

// One incremental update — cone extraction, graph build, dispatch, wait —
// settles near a dozen allocations on tv80: the modifier's seeds, the two
// cone lists, the dispatch's five, and now and then a recycled node whose
// successor spill has to grow for the slice it holds this time (the reason
// for the long warm-up). A graph of ~6000 fresh nodes, closures and names
// cost ~16000.
func TestIncrementalUpdateAllocBound(t *testing.T) {
	tm := sta.New(experiments.TV80.Build(1), experiments.ClockPeriod)
	a := stav2.New(tm, 2)
	defer a.Close()
	if err := a.Run(tm.FullUpdate()); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	tasks := 0
	update := func() {
		u := tm.PrepareUpdate(tm.RandomModifier(rng))
		tasks += u.NumTasks()
		if err := a.Taskflow(u).Dispatch().Get(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		update()
	}
	tasks = 0
	const runs = 30
	allocs := testing.AllocsPerRun(runs, update)
	if allocs > 40 {
		t.Fatalf("an incremental update of ~%d propagations allocates %v objects, want <= 40", tasks/(runs+1), allocs)
	}
}
