package locksuite

import (
	"testing"

	"ollock/internal/foll"
	"ollock/internal/obs"
	"ollock/internal/rind"
	"ollock/internal/roll"
)

// indCalls counts the indicator calls a lock makes, by what they cost a
// mode change: the two one-step transitions it is allowed, and
// everything it is not.
type indCalls struct {
	closeIfEmpty int // CloseIfEmpty
	openArrived  int // OpenWithArrivals(1, false)
	arrive       int // Arrive, ArriveLocal
	other        int // Query, Close, Open, any other OpenWithArrivals
}

// countingInd counts into a block shared by every node's indicator; it
// also hides the concrete type, so every call comes through here.
type countingInd struct {
	rind.Indicator
	c *indCalls
}

func (i countingInd) CloseIfEmpty() bool { i.c.closeIfEmpty++; return i.Indicator.CloseIfEmpty() }
func (i countingInd) Arrive(id int) rind.Ticket {
	i.c.arrive++
	return i.Indicator.Arrive(id)
}
func (i countingInd) ArriveLocal(id int, lc *obs.Local) rind.Ticket {
	i.c.arrive++
	return i.Indicator.ArriveLocal(id, lc)
}
func (i countingInd) Query() (bool, bool) { i.c.other++; return i.Indicator.Query() }
func (i countingInd) Close() bool         { i.c.other++; return i.Indicator.Close() }
func (i countingInd) Open()               { i.c.other++; i.Indicator.Open() }
func (i countingInd) OpenWithArrivals(n int, close bool) {
	if n == 1 && !close {
		i.c.openArrived++
	} else {
		i.c.other++
	}
	i.Indicator.OpenWithArrivals(n, close)
}

// TestModeChangeIndicatorCalls pins what a mode change costs at the
// indicator, by count rather than by clock: with nobody waiting, a
// write onto the drained group the last read left at the tail is one
// CloseIfEmpty — no open-wait Query, no Close — and a read onto the
// empty queue a write left is one OpenWithArrivals(1, false) — no Open,
// no Arrive. Joins stay one arrival; a write onto an empty queue touches
// no indicator at all.
func TestModeChangeIndicatorCalls(t *testing.T) {
	var (
		enqueue = indCalls{openArrived: 1}
		join    = indCalls{arrive: 1}
		take    = indCalls{closeIfEmpty: 1}
		none    = indCalls{}
	)
	script := []struct {
		write bool
		want  indCalls
	}{
		{false, enqueue}, {false, join}, {true, take}, {false, enqueue}, {true, take}, {true, none}, {false, enqueue},
	}
	factories := map[string]rind.Factory{
		"csnzi":   rind.CSNZIFactory(),
		"central": rind.CentralFactory(),
		"sharded": rind.ShardedFactory(4),
	}
	for _, kind := range []string{"foll", "roll"} {
		for name, f := range factories {
			t.Run(kind+"/"+name, func(t *testing.T) {
				var calls indCalls
				counting := func() rind.Indicator { return countingInd{f(), &calls} }
				var p Proc
				if kind == "foll" {
					p = foll.New(2, foll.WithIndicator(counting)).NewProc()
				} else {
					p = roll.New(2, roll.WithIndicator(counting)).NewProc()
				}
				for i, step := range script {
					calls = indCalls{} // construction closes every ring node
					if step.write {
						p.Lock()
						p.Unlock()
					} else {
						p.RLock()
						p.RUnlock()
					}
					if calls != step.want {
						t.Errorf("step %d (write=%v): indicator calls %+v, want %+v", i, step.write, calls, step.want)
					}
				}
			})
		}
	}
}
