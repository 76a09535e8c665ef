package sim

import "testing"

// BenchmarkEngineStep measures the engine alone — scheduler steps per
// host second on programs whose primitives do next to no memory-model
// work — in the three regimes a lock simulation mixes: every step hands
// over to another thread, no step does, and every step is a wake-up
// followed by a hand-over.
func BenchmarkEngineStep(b *testing.B) {
	cases := []struct {
		name  string
		spawn func(m *Machine)
	}{
		{"switch-256-ready", func(m *Machine) {
			for i := 0; i < 256; i++ {
				m.Spawn(func(c *Ctx) {
					for j := 0; j < 200; j++ {
						c.Work(1)
					}
				})
			}
		}},
		{"stay-1-running-255-parked", func(m *Machine) {
			done := m.NewWord(0)
			m.Spawn(func(c *Ctx) {
				for j := 0; j < 50000; j++ {
					c.Work(1)
				}
				c.Store(done, 1)
			})
			for i := 1; i < 256; i++ {
				m.Spawn(func(c *Ctx) {
					c.SpinUntil(done, func(v uint64) bool { return v == 1 })
				})
			}
		}},
		{"wake-2-pingpong", func(m *Machine) {
			ping, pong := m.NewWord(0), m.NewWord(0)
			const rounds = 10000
			m.Spawn(func(c *Ctx) {
				for j := uint64(1); j <= rounds; j++ {
					c.Store(ping, j)
					c.SpinUntil(pong, func(v uint64) bool { return v == j })
				}
			})
			m.Spawn(func(c *Ctx) {
				for j := uint64(1); j <= rounds; j++ {
					c.SpinUntil(ping, func(v uint64) bool { return v == j })
					c.Store(pong, j)
				}
			})
		}},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := New(T5440())
				bc.spawn(m)
				b.StartTimer()
				m.Run()
				steps += m.Steps()
			}
			b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/s")
		})
	}
}
