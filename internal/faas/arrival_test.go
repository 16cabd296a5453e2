package faas

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestParallelInvokeArrivalOrder sends concurrent GPU inferences through
// the gateway's inference client from many goroutines on at least two
// Ps, against one cell and against two. Arrival is stamped under the
// cell's lock, so no request can reach the scheduler behind a later
// arrival: every inference must succeed. On one P the goroutines never
// truly overlap, so the test forces two. The client is driven directly
// (no CPU forward pass), which keeps the submissions dense enough to
// overlap.
func TestParallelInvokeArrivalOrder(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	for _, cells := range []int{1, 2} {
		t.Run(fmt.Sprintf("cells=%d", cells), func(t *testing.T) {
			g, err := NewGateway(GatewayConfig{
				Policy:        "LALBO3",
				TimeScale:     0.001,
				InvokeTimeout: 10 * time.Second,
				Cells:         cells,
			})
			if err != nil {
				t.Fatal(err)
			}
			specs := make([]FunctionSpec, 6)
			for i := range specs {
				specs[i] = FunctionSpec{
					Name:       fmt.Sprintf("fn%d", i),
					GPUEnabled: true,
					Model:      []string{"squeezenet1.1", "squeezenet1.0"}[i%2],
				}
			}
			const workers, perWorker = 32, 50
			var wg sync.WaitGroup
			var mu sync.Mutex
			var errs []error
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						spec := specs[(w+i)%len(specs)]
						if _, err := g.infer.Predict(spec, 1); err != nil {
							mu.Lock()
							errs = append(errs, fmt.Errorf("%s: %w", spec.Name, err))
							mu.Unlock()
						}
					}
				}(w)
			}
			wg.Wait()
			if len(errs) > 0 {
				t.Fatalf("%d of %d inferences failed; first: %v", len(errs), workers*perWorker, errs[0])
			}
			var completed int64
			for c := 0; c < g.CellCount(); c++ {
				completed += g.Cell(c).Completed()
			}
			if completed != workers*perWorker {
				t.Errorf("completed = %d, want %d", completed, workers*perWorker)
			}
		})
	}
}
