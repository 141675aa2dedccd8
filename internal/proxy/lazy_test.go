package proxy

import (
	"strconv"
	"testing"
	"time"

	"funabuse/internal/simrand"
)

// eagerPool is the original Pool: every exit rendered to its dotted-quad
// string at build time, membership in a map keyed by that string. It is the
// reference the packed, lazily rendered Pool must match draw for draw.
type eagerPool struct {
	rng   *simrand.RNG
	exits []IP
	index map[IP]int
}

func newEagerPool(r *simrand.RNG, country string, size int) *eagerPool {
	p := &eagerPool{rng: r, exits: make([]IP, 0, size), index: make(map[IP]int, size)}
	lead := 0
	for i := range len(country) {
		lead = lead*31 + int(country[i])
	}
	a := 11 + (lead % 80)
	b := (lead / 80) % 256
	for len(p.exits) < size {
		ip := IP(strconv.Itoa(a) + "." + strconv.Itoa(b) + "." +
			strconv.Itoa(p.rng.Intn(256)) + "." + strconv.Itoa(1+p.rng.Intn(254)))
		if _, dup := p.index[ip]; dup {
			continue
		}
		p.index[ip] = len(p.exits)
		p.exits = append(p.exits, ip)
	}
	return p
}

func (p *eagerPool) contains(ip IP) bool { _, ok := p.index[ip]; return ok }

func (p *eagerPool) draw() IP { return p.exits[p.rng.Intn(len(p.exits))] }

func TestPoolLazyMatchesEager(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		for _, size := range []int{1, 512, 4096} {
			for _, country := range []string{"FR", "UZ"} {
				lazy := NewPool(simrand.New(seed), country, size)
				eager := newEagerPool(simrand.New(seed), country, size)
				name := country + "/" + strconv.Itoa(size) + "/seed" + strconv.FormatUint(seed, 10)

				compareDraws := func(phase string) {
					t.Helper()
					for i := range 10000 {
						if got, want := lazy.Draw(), eager.draw(); got != want {
							t.Fatalf("%s %s: draw %d = %s, eager reference = %s", name, phase, i, got, want)
						}
					}
				}
				compareContains := func(phase string) {
					t.Helper()
					probes := append([]IP{}, eager.exits...)
					// Undrawn members, neighbours of members, foreign and malformed.
					other := newEagerPool(simrand.New(seed+100), "GB", 64)
					probes = append(probes, other.exits...)
					for _, ip := range eager.exits[:min(64, len(eager.exits))] {
						probes = append(probes, ip+"0", ip+".", "0"+ip, ip[:len(ip)-1], " "+ip)
					}
					p := lazy.prefix
					probes = append(probes, "", ".", "...", IP(p), IP(p+"1"), IP(p+"1."), IP(p+".1"),
						IP(p+"01.5"), IP(p+"1.05"), IP(p+"256.1"), IP(p+"1.256"), IP(p+"1.0"), IP(p+"1.255"),
						IP(p+"0.1"), IP(p+"255.254"), IP(p+"1.1.1"), IP(p+"-1.1"), IP(p+"+1.1"), IP(p+"1.1 "),
						IP(p+"1111.1"), IP(p+"a.b"), "10.0.0.1", "not an ip")
					for _, ip := range probes {
						if got, want := lazy.Contains(ip), eager.contains(ip); got != want {
							t.Fatalf("%s %s: Contains(%q) = %v, eager reference = %v", name, phase, ip, got, want)
						}
					}
				}

				if lazy.Size() != len(eager.exits) {
					t.Fatalf("%s: Size() = %d, want %d", name, lazy.Size(), len(eager.exits))
				}
				compareContains("built")
				compareDraws("built")
				compareContains("drawn")
				for i, want := range eager.exits {
					if got := lazy.exit(i); got != want {
						t.Fatalf("%s: exit %d = %s, eager reference = %s", name, i, got, want)
					}
				}
			}
		}
	}
}

// TestPoolSaturatedSpaceTerminates guards the loop that used to spin when
// asked for more distinct addresses than a country's space holds: NewPool
// past 65,024 exits.
func TestPoolSaturatedSpaceTerminates(t *testing.T) {
	done := make(chan *Pool, 1)
	go func() {
		done <- NewPool(simrand.New(1), "FR", poolSpace+1000)
	}()
	select {
	case p := <-done:
		if p.Size() != poolSpace {
			t.Fatalf("Size() = %d, want the whole space (%d)", p.Size(), poolSpace)
		}
		if !p.Contains(p.Draw()) {
			t.Fatal("Draw returned non-member")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("NewPool on a saturated address space did not return")
	}

	s := NewService(simrand.New(2), WithPoolSize(1<<20))
	s.Exit("UZ")
	if pool := s.pools["UZ"]; pool.Size() != poolSpace {
		t.Fatalf("WithPoolSize(1<<20) built %d exits, want %d", pool.Size(), poolSpace)
	}
}
