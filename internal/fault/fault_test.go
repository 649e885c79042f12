package fault

import (
	"context"
	"errors"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/store/objstore"
)

func TestParseSpec(t *testing.T) {
	spec, err := Parse("err=0.3,lat=200ms,corrupt=0.05,timeout=0.1,seed=7,for=30s")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Err: 0.3, Latency: 200 * time.Millisecond, Corrupt: 0.05,
		Timeout: 0.1, Seed: 7, For: 30 * time.Second}
	if spec != want {
		t.Fatalf("Parse = %+v, want %+v", spec, want)
	}
	if spec.String() != "err=0.3,lat=200ms,timeout=0.1,corrupt=0.05,seed=7,for=30s" {
		t.Fatalf("String() = %q", spec.String())
	}
	if s, err := Parse(""); err != nil || !s.Zero() {
		t.Fatalf("empty spec: %+v, %v", s, err)
	}
	if s, err := Parse(spec.String()); err != nil || s != spec {
		t.Fatalf("String round-trip: %+v, %v", s, err)
	}
}

func TestParseSpecRejectsBadInput(t *testing.T) {
	for _, bad := range []string{
		"err=2", "err=-0.1", "err=x", "lat=5", "lat=-1s", "bogus=1",
		"err", "timeout=1.5", "seed=-1", "for=abc",
		"err=NaN", "timeout=NaN", "corrupt=NaN",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("objstore:err=1;peer:lat=6s")
	if err != nil {
		t.Fatal(err)
	}
	if p[TargetObjstore].Err != 1 || p[TargetPeer].Latency != 6*time.Second {
		t.Fatalf("plan = %v", p)
	}
	if _, ok := p[TargetFleet]; ok {
		t.Fatal("unaddressed target present in plan")
	}
	// A bare spec fans out to every target.
	p, err = ParsePlan("err=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 3 || p[TargetFleet].Err != 0.5 {
		t.Fatalf("bare-spec plan = %v", p)
	}
	for _, bad := range []string{"nope:err=1", "objstore:err=1;objstore:err=0", "objstore:err=9"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
	if p, err := ParsePlan(""); err != nil || p != nil {
		t.Fatalf("empty plan: %v, %v", p, err)
	}
}

// FuzzParsePlan pins the -chaos grammar's contracts on arbitrary input:
// it never panics, and every accepted plan renders (String) to text
// that re-parses to an equal plan, so what /stats and the logs print
// can be pasted back into -chaos.
func FuzzParsePlan(f *testing.F) {
	for _, seed := range []string{
		"",
		"none",
		"err=0.5",
		"err=0",          // a plan of zero specs renders as target:none sections
		"objstore:",      // likewise one zero-spec target
		"seed=5,for=10s", // a seed alone injects nothing but still renders
		"objstore:err=1;peer:lat=6s,seed=3",
		"fleet:corrupt=0.05,timeout=0.1,for=30s;objstore:none",
		"err=0.3,lat=200ms,corrupt=0.05,timeout=0.1,seed=7,for=30s",
		"err=NaN",
		"err=-0,lat=1.5h",
		"nope:err=1",
		"objstore:err=1;objstore:err=0",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		p, err := ParsePlan(in)
		if err != nil {
			return
		}
		text := p.String()
		back, err := ParsePlan(text)
		if err != nil {
			t.Fatalf("ParsePlan(%q) rendered %q, which does not re-parse: %v", in, text, err)
		}
		if !maps.Equal(p, back) {
			t.Fatalf("ParsePlan(%q) = %v, but its rendering %q re-parses to %v", in, p, text, back)
		}
	})
}

func TestInjectorDeterminism(t *testing.T) {
	spec := Spec{Err: 0.5, Corrupt: 0.3, Timeout: 0.1, Seed: 42}
	a, b := NewInjector(spec), NewInjector(spec)
	for i := 0; i < 200; i++ {
		da, db := a.decide(), b.decide()
		if da != db {
			t.Fatalf("call %d: same seed diverged: %+v vs %+v", i, da, db)
		}
	}
	sa, sb := a.Stats(), b.Stats()
	if sa != sb {
		t.Fatalf("stats diverged: %+v vs %+v", sa, sb)
	}
	if sa.Errors == 0 || sa.Corruptions == 0 || sa.Hangs == 0 {
		t.Fatalf("200 calls at err=0.5/corrupt=0.3/timeout=0.1 fired nothing: %+v", sa)
	}
}

func TestInjectorRatesApproximate(t *testing.T) {
	inj := NewInjector(Spec{Err: 0.3, Seed: 9})
	n := 2000
	for i := 0; i < n; i++ {
		inj.decide()
	}
	got := float64(inj.Stats().Errors) / float64(n)
	if got < 0.25 || got > 0.35 {
		t.Fatalf("err=0.3 fired at rate %.3f over %d calls", got, n)
	}
}

func TestInjectorForWindowCloses(t *testing.T) {
	clk := time.Unix(1_700_000_000, 0)
	var mu sync.Mutex
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clk }
	inj := newInjector(Spec{Err: 1, For: 10 * time.Second, Seed: 1}, now)
	if !inj.Active() {
		t.Fatal("fresh injector inactive")
	}
	if d := inj.decide(); !d.err {
		t.Fatal("err=1 did not fire inside the window")
	}
	mu.Lock()
	clk = clk.Add(11 * time.Second)
	mu.Unlock()
	if inj.Active() {
		t.Fatal("injector active past its window")
	}
	if d := inj.decide(); d.err {
		t.Fatal("fault fired after the window closed")
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var inj *Injector
	if inj.Active() {
		t.Fatal("nil injector active")
	}
	if d := inj.decide(); d != (decision{}) {
		t.Fatalf("nil injector decided %+v", d)
	}
	mem := objstore.NewMem()
	if WrapObjectClient(mem, nil) != objstore.ObjectClient(mem) {
		t.Fatal("nil injector wrapped the client")
	}
}

func TestObjectClientFaults(t *testing.T) {
	mem := objstore.NewMem()
	if err := mem.Put(context.Background(), "k", []byte("hello world")); err != nil {
		t.Fatal(err)
	}

	// err=1: every call fails with ErrInjected.
	down := WrapObjectClient(mem, NewInjector(Spec{Err: 1, Seed: 1}))
	if _, err := down.Get(context.Background(), "k"); !errors.Is(err, ErrInjected) {
		t.Fatalf("err=1 Get returned %v", err)
	}
	if err := down.Put(context.Background(), "k2", []byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("err=1 Put returned %v", err)
	}

	// corrupt=1: bytes come back damaged but the stored object is intact.
	corrupting := WrapObjectClient(mem, NewInjector(Spec{Corrupt: 1, Seed: 1}))
	got, err := corrupting.Get(context.Background(), "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) == "hello world" {
		t.Fatal("corrupt=1 returned undamaged bytes")
	}
	if orig, _ := mem.Get(context.Background(), "k"); string(orig) != "hello world" {
		t.Fatal("corruption damaged the stored object, not just the read")
	}
	// Corrupting Put damages what lands in the bucket.
	if err := corrupting.Put(context.Background(), "torn", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if stored, _ := mem.Get(context.Background(), "torn"); string(stored) == "payload" {
		t.Fatal("corrupt=1 Put stored undamaged bytes")
	}

	// timeout=1: the call blocks until the context dies.
	hang := WrapObjectClient(mem, NewInjector(Spec{Timeout: 1, Seed: 1}))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := hang.Get(ctx, "k"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timeout=1 Get returned %v", err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("hang returned before the context deadline")
	}

	// lat=30ms: the call succeeds, delayed.
	slow := WrapObjectClient(mem, NewInjector(Spec{Latency: 30 * time.Millisecond, Seed: 1}))
	start = time.Now()
	if _, err := slow.Get(context.Background(), "k"); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("latency not applied")
	}
	if name := down.Name(); name != "mem+fault" {
		t.Fatalf("Name() = %q", name)
	}
}

func TestRoundTripperFaults(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "payload-bytes")
	}))
	defer ts.Close()

	// err=1 fails the round trip.
	c := &http.Client{Transport: WrapTransport(nil, NewInjector(Spec{Err: 1, Seed: 1}))}
	if _, err := c.Get(ts.URL); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("err=1 round trip: %v", err)
	}

	// corrupt=1 damages the body but the response still terminates.
	c = &http.Client{Transport: WrapTransport(nil, NewInjector(Spec{Corrupt: 1, Seed: 1}))}
	resp, err := c.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if string(body) == "payload-bytes" {
		t.Fatal("corrupt=1 returned undamaged body")
	}
	if len(body) != len("payload-bytes") {
		t.Fatalf("corruption changed the length: %d", len(body))
	}

	// timeout=1 black-holes until the request context expires.
	c = &http.Client{Transport: WrapTransport(nil, NewInjector(Spec{Timeout: 1, Seed: 1}))}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL, nil)
	start := time.Now()
	if _, err := c.Do(req); err == nil {
		t.Fatal("black-holed round trip succeeded")
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("black hole returned early")
	}
}

func TestCorruptBytesNeverIdentity(t *testing.T) {
	for _, in := range [][]byte{nil, {}, {0}, []byte("a"), []byte("hello")} {
		out := corruptBytes(in)
		if string(out) == string(in) {
			t.Errorf("corruptBytes(%q) returned identical bytes", in)
		}
	}
	// Corrupting twice must not restore the original either (for every
	// possible middle byte): a corrupted write read back through a
	// corrupting Get would otherwise verify clean and hide the fault.
	for b := 0; b < 256; b++ {
		in := []byte{byte(b)}
		if twice := corruptBytes(corruptBytes(in)); string(twice) == string(in) {
			t.Errorf("double corruption restored byte %#x", b)
		}
	}
}
