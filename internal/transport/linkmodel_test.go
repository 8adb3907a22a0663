// Regression tests for the fabric's fault-model fixes (in-batch delay
// ordering, MinDelay validation, the seed-0 stream) and property tests for
// the Gilbert–Elliott link model.
package transport

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"pmcast/internal/addr"
	"pmcast/internal/clock"
	"pmcast/internal/core"
	"pmcast/internal/wire"
)

// TestBatchDelayLandsInOrder is the regression test for the in-batch
// reordering bug: sub-messages of one wire.Batch used to draw independent
// delays, so a batch's parts could land out of canonical order. One batch
// draws one delay and lands as the one envelope it was sent as.
func TestBatchDelayLandsInOrder(t *testing.T) {
	vc, _, a, b := virtualPair(t, Config{
		MinDelay: time.Millisecond,
		MaxDelay: 10 * time.Millisecond,
		Seed:     7,
	})
	if err := a.Send(b.Addr(), testBatch(4)); err != nil {
		t.Fatal(err)
	}
	// One batch, one delay, one timer. The buggy code scheduled one timer
	// per surviving sub-message.
	if got := vc.Pending(); got != 1 {
		t.Fatalf("%d timers scheduled for one batch, want 1", got)
	}
	vc.Advance(10 * time.Millisecond)
	if got := len(b.Recv()); got != 1 {
		t.Fatalf("%d envelopes landed, want the one that was sent", got)
	}
	got := partTags((<-b.Recv()).Payload)
	if want := "[g1 g2 g3 g4 d7 h7]"; fmt.Sprint(got) != want {
		t.Fatalf("landed parts %v, want %s (canonical order violated)", got, want)
	}
}

// TestDelayedDeliveriesKeepPerLinkFIFO pins the FIFO guarantee: a later
// send on the same directed link never lands before an earlier delayed one,
// even when its delay draw is shorter.
func TestDelayedDeliveriesKeepPerLinkFIFO(t *testing.T) {
	vc, _, a, b := virtualPair(t, Config{
		MinDelay: time.Millisecond,
		MaxDelay: 20 * time.Millisecond,
		Seed:     3,
	})
	const n = 50
	for i := 0; i < n; i++ {
		if err := a.Send(b.Addr(), i); err != nil {
			t.Fatal(err)
		}
	}
	vc.Advance(time.Second)
	for want := 0; want < n; want++ {
		select {
		case env := <-b.Recv():
			if env.Payload != want {
				t.Fatalf("arrival %d carries payload %v (per-link FIFO violated)", want, env.Payload)
			}
		default:
			t.Fatalf("only %d of %d messages delivered", want, n)
		}
	}
}

// TestMinDelayValidation is the regression test for the silently-ignored
// MinDelay: MinDelay > MaxDelay (including the old MaxDelay == 0 shape) is
// now rejected at construction instead of configuring a fabric that
// delivers synchronously.
func TestMinDelayValidation(t *testing.T) {
	if _, err := NewNetwork(Config{MinDelay: 5 * time.Millisecond}); err == nil {
		t.Error("MinDelay 5ms with MaxDelay 0 accepted; want a config error")
	}
	if _, err := NewNetwork(Config{MinDelay: 5 * time.Millisecond, MaxDelay: time.Millisecond}); err == nil {
		t.Error("MinDelay > MaxDelay accepted; want a config error")
	}
	if _, err := NewNetwork(Config{MinDelay: -1, MaxDelay: time.Millisecond}); err == nil {
		t.Error("negative MinDelay accepted; want a config error")
	}
}

// TestFixedDelayHonored covers the legal boundary the validation keeps:
// MinDelay == MaxDelay > 0 is a fixed delay: no synchronous hand-off, and
// delivery at exactly the configured offset.
func TestFixedDelayHonored(t *testing.T) {
	vc, _, a, b := virtualPair(t, Config{
		MinDelay: 3 * time.Millisecond,
		MaxDelay: 3 * time.Millisecond,
	})
	if err := a.Send(b.Addr(), "m"); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-b.Recv():
		t.Fatalf("fixed 3ms delay delivered %v synchronously", env.Payload)
	default:
	}
	vc.Advance(2 * time.Millisecond)
	select {
	case env := <-b.Recv():
		t.Fatalf("fixed 3ms delay delivered %v at 2ms", env.Payload)
	default:
	}
	vc.Advance(time.Millisecond)
	select {
	case env := <-b.Recv():
		if env.Payload != "m" {
			t.Fatalf("got %v, want m", env.Payload)
		}
	default:
		t.Fatal("nothing delivered at the fixed 3ms offset")
	}
}

// dropPattern sends n bare payloads a → b and returns which were lost,
// reading each outcome off the fabric drop counter (survivors are drained
// inline so the inbox never overflows).
func dropPattern(t *testing.T, cfg Config, n int) []bool {
	t.Helper()
	net := MustNetwork(cfg)
	defer net.Close()
	a, err := net.Attach(addr.New(0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Attach(addr.New(1))
	if err != nil {
		t.Fatal(err)
	}
	pattern := make([]bool, n)
	before := net.Dropped()
	for i := range pattern {
		if err := a.Send(b.Addr(), i); err != nil {
			t.Fatal(err)
		}
		after := net.Dropped()
		pattern[i] = after != before
		before = after
		select {
		case <-b.Recv():
		default:
		}
	}
	return pattern
}

// TestSeedZeroHasOwnStream is the regression test for the seed collision:
// Config.Seed 0 used to be coerced to 1, so sweeps iterating from 0 ran the
// same campaign twice. Seed 0 now selects its own stream constant — and
// still replays itself deterministically.
func TestSeedZeroHasOwnStream(t *testing.T) {
	const n = 256
	zero := dropPattern(t, Config{Loss: 0.5, Seed: 0}, n)
	one := dropPattern(t, Config{Loss: 0.5, Seed: 1}, n)
	same := true
	for i := range zero {
		if zero[i] != one[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 0 and 1 drew identical fault patterns; seed 0 must have its own stream")
	}
	replay := dropPattern(t, Config{Loss: 0.5, Seed: 0}, n)
	for i := range zero {
		if zero[i] != replay[i] {
			t.Fatalf("seed 0 does not replay itself (message %d)", i)
		}
	}
}

// TestGilbertElliottChainStatistics is the property test for the bursty
// model: in the classic GoodLoss=0/BadLoss=1 configuration the observed
// loss pattern is exactly the chain's bad-state pattern, so the empirical
// stationary loss rate must approach PGB/(PGB+PBG) and the mean loss-burst
// length 1/PBG — and a fixed seed must replay the pattern byte-identically.
func TestGilbertElliottChainStatistics(t *testing.T) {
	const (
		n   = 30000
		pgb = 0.05
		pbg = 0.25
	)
	cfg := Config{Seed: 11, Link: LinkModel{BadLoss: 1, PGB: pgb, PBG: pbg}}
	pattern := dropPattern(t, cfg, n)

	losses, bursts, run := 0, 0, 0
	var burstSum int
	for _, lost := range pattern {
		if lost {
			losses++
			run++
			continue
		}
		if run > 0 {
			bursts++
			burstSum += run
			run = 0
		}
	}
	if run > 0 {
		bursts++
		burstSum += run
	}

	wantRate := pgb / (pgb + pbg)
	rate := float64(losses) / n
	if rate < wantRate*0.85 || rate > wantRate*1.15 {
		t.Errorf("empirical loss rate %.4f, want %.4f ±15%%", rate, wantRate)
	}
	wantBurst := 1 / pbg
	burst := float64(burstSum) / float64(bursts)
	if burst < wantBurst*0.85 || burst > wantBurst*1.15 {
		t.Errorf("mean burst length %.2f over %d bursts, want %.2f ±15%%", burst, bursts, wantBurst)
	}

	replay := dropPattern(t, cfg, n)
	for i := range pattern {
		if pattern[i] != replay[i] {
			t.Fatalf("seed 11 does not replay the chain byte-identically (message %d)", i)
		}
	}
	cfg.Seed = 12
	other := dropPattern(t, cfg, n)
	same := true
	for i := range pattern {
		if pattern[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 11 and 12 drew identical chain patterns")
	}
}

// TestLinkJitterDelays pins that jitter alone (no MinDelay/MaxDelay) takes
// messages off the synchronous hand-off and lands them inside the jitter
// bounds.
func TestLinkJitterDelays(t *testing.T) {
	vc := clock.NewVirtual()
	net := MustNetwork(Config{
		Link:  LinkModel{JitterMin: time.Millisecond, JitterMax: 2 * time.Millisecond},
		Clock: vc,
		Seed:  5,
	})
	defer net.Close()
	a, _ := net.Attach(addr.New(0))
	b, _ := net.Attach(addr.New(1))
	if err := a.Send(b.Addr(), "m"); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-b.Recv():
		t.Fatalf("jittered fabric delivered %v synchronously", env.Payload)
	default:
	}
	if vc.Pending() != 1 {
		t.Fatalf("%d timers pending, want 1", vc.Pending())
	}
	vc.Advance(time.Millisecond - time.Nanosecond)
	select {
	case env := <-b.Recv():
		t.Fatalf("delivered %v before JitterMin", env.Payload)
	default:
	}
	vc.Advance(time.Millisecond + time.Nanosecond)
	select {
	case env := <-b.Recv():
		if env.Payload != "m" {
			t.Fatalf("got %v, want m", env.Payload)
		}
	default:
		t.Fatal("nothing delivered by JitterMax")
	}
}

// TestLinkModelValidation rejects configurations the fault path would
// silently misread.
func TestLinkModelValidation(t *testing.T) {
	bad := []Config{
		{Link: LinkModel{PGB: 0.1}},                                                     // chain can never leave bad
		{Link: LinkModel{BadLoss: 0.5}},                                                 // state loss without a chain
		{Link: LinkModel{GoodLoss: 0.1}},                                                // state loss without a chain
		{Link: LinkModel{PGB: 1.5, PBG: 0.5}},                                           // probability out of range
		{Link: LinkModel{PGB: 0.1, PBG: -0.5}},                                          // probability out of range
		{Link: LinkModel{JitterMin: 2 * time.Millisecond, JitterMax: time.Millisecond}}, // inverted jitter
		{Link: LinkModel{JitterMin: -time.Millisecond}},                                 // negative jitter
		{Loss: 1.5}, // ambient loss out of range
	}
	for i, cfg := range bad {
		if _, err := NewNetwork(cfg); err == nil {
			t.Errorf("config %d (%+v) accepted; want an error", i, cfg.Link)
		}
	}
	good := Config{Link: LinkModel{GoodLoss: 0.01, BadLoss: 0.6, PGB: 0.05, PBG: 0.25,
		JitterMin: time.Millisecond, JitterMax: 2 * time.Millisecond}}
	if _, err := NewNetwork(good); err != nil {
		t.Errorf("legal link model rejected: %v", err)
	}
}

// everyKnob turns on every fault draw route can make: ambient loss, the
// Gilbert–Elliott chain, a delay span and a jitter span.
var everyKnob = Config{
	Loss:     0.2,
	MinDelay: time.Millisecond,
	MaxDelay: 8 * time.Millisecond,
	Link: LinkModel{BadLoss: 0.7, PGB: 0.1, PBG: 0.3,
		JitterMin: time.Millisecond, JitterMax: 3 * time.Millisecond},
	Seed: 9,
}

// TestConcurrentSendsOnOneLink has two goroutines send from one endpoint to
// one destination over a faulty fabric — what two egress workers of one node
// do. Under -race it holds that the link's streams and FIFO floor are
// guarded; every message must still be accounted for exactly once.
func TestConcurrentSendsOnOneLink(t *testing.T) {
	const perSender = 2000
	cfg := everyKnob
	cfg.QueueLen = 2 * perSender
	vc, net, a, b := virtualPair(t, cfg)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := a.Send(b.Addr(), i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	vc.Advance(time.Second)
	if got := len(b.Recv()) + net.Dropped(); got != 2*perSender {
		t.Errorf("%d delivered + %d dropped, want %d in all", len(b.Recv()), net.Dropped(), 2*perSender)
	}
}

// TestBareAndOnePartBatchParity holds the premise route is built on: a bare
// payload is a round envelope of one part. The same gossips sent bare and
// wrapped one per wire.Batch, over every fault knob at once, must draw the
// same fates and delays from the same seed: the same survivors, the same
// landing instants and the same drop count.
func TestBareAndOnePartBatchParity(t *testing.T) {
	type landing struct {
		tag string
		at  time.Duration
	}
	run := func(wrap bool) ([]landing, int) {
		vc, net, a, b := virtualPair(t, everyKnob)
		start := vc.Now()
		for _, g := range testBatch(400).Gossips {
			var payload any = g
			if wrap {
				payload = wire.Batch{Gossips: []core.Gossip{g}}
			}
			if err := a.Send(b.Addr(), payload); err != nil {
				t.Fatal(err)
			}
		}
		var landed []landing
		for {
			now, ran := vc.RunNext()
			if ran == 0 {
				return landed, net.Dropped()
			}
			for len(b.Recv()) > 0 {
				// Bare arrives bare and a batch as a batch: what must not
				// depend on the wrapping is the gossip's fate.
				tags := partTags((<-b.Recv()).Payload)
				if len(tags) != 1 {
					t.Fatalf("one gossip landed as %v", tags)
				}
				landed = append(landed, landing{tags[0], now.Sub(start)})
			}
		}
	}
	bare, bareDropped := run(false)
	batched, batchedDropped := run(true)
	if len(bare) == 0 || bareDropped == 0 {
		t.Fatalf("%d landed, %d dropped: the knobs must exercise both fates", len(bare), bareDropped)
	}
	if bareDropped != batchedDropped {
		t.Errorf("dropped %d bare, %d batched", bareDropped, batchedDropped)
	}
	if !reflect.DeepEqual(bare, batched) {
		t.Errorf("landings differ: %d bare, %d batched", len(bare), len(batched))
	}
}
