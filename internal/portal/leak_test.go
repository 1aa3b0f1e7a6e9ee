// Goroutine-leak check for the abandoned-runaway path: a tool that
// ignores cancellation but eventually finishes must leave zero
// goroutines behind once the pool closes.
package portal_test

import (
	"runtime"
	"testing"
	"time"

	"vlsicad/internal/fault"
	"vlsicad/internal/obs"
	"vlsicad/internal/portal"
)

// waitGoroutines polls until the goroutine count drops back to at
// most base, failing after a generous deadline.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC() // nudge finished goroutines off the books
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s", n, base, buf)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// releaseTool ignores cancellation until release closes: the pool must
// abandon it.
type releaseTool struct {
	release chan struct{}
}

func (rt releaseTool) Name() string     { return "runaway" }
func (rt releaseTool) Describe() string { return "ignores cancel until released" }
func (rt releaseTool) Run(input string, cancel <-chan struct{}) (string, error) {
	<-rt.release // ignores cancellation: the pool must abandon us
	return "late", nil
}

func TestPoolAbandonNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	inj := fault.Script(echoTool{}, fault.Hang)
	p := portal.NewPool(portal.PoolConfig{Workers: 4, Timeout: 5 * time.Millisecond, Observer: obs.NewObserver(nil)})
	if err := p.Register(inj); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		res, err := p.Submit("u", "echo", "x")
		if err != nil {
			t.Fatal(err)
		}
		if !res.Abandoned {
			t.Fatalf("job %d not abandoned: %+v", i, res)
		}
	}
	inj.ReleaseHung()
	p.Close()
	// Workers, runners, and drain watchers must all be gone.
	waitGoroutines(t, base)
}
