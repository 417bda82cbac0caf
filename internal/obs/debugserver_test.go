package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestDebugServerPprof(t *testing.T) {
	ds, err := StartDebugServer("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/", ds.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index: status %d, missing profile listing:\n%s", resp.StatusCode, body)
	}
}

// TestEventsSSEStream drives the /events endpoint end to end: events
// emitted through a tracer over the bus arrive as well-formed SSE data
// frames that parse back into schema-valid events.
func TestEventsSSEStream(t *testing.T) {
	bus := NewBus(nil, nil)
	tracer := NewTracer(bus)
	ds, err := StartDebugServer("127.0.0.1:0", nil, bus)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	resp, err := http.Get("http://" + ds.Addr() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/events status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			tracer.SetTick(int64(i))
			tracer.Emit(Event{Kind: KindStatus, Rank: 1, Open: i})
			time.Sleep(2 * time.Millisecond)
		}
	}()
	frames, err := readSSEFrames(resp.Body, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, frame := range frames {
		ev, err := ParseLine([]byte(frame))
		if err != nil {
			t.Fatalf("frame is not a schema event: %v (%q)", err, frame)
		}
		if !KnownKind(ev.Kind) {
			t.Fatalf("frame carries unknown kind %q", ev.Kind)
		}
	}
	<-done
}

// TestEventsSSEKindFilter: ?kind= narrows the stream.
func TestEventsSSEKindFilter(t *testing.T) {
	bus := NewBus(nil, nil)
	tracer := NewTracer(bus)
	ds, err := StartDebugServer("127.0.0.1:0", nil, bus)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	resp, err := http.Get("http://" + ds.Addr() + "/events?kind=incumbent")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			tracer.Emit(Event{Kind: KindStatus, Rank: 1})
			tracer.Emit(Event{Kind: KindIncumbent, Rank: 2, Primal: float64(i)})
			time.Sleep(time.Millisecond)
		}
	}()
	frames, err := readSSEFrames(resp.Body, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, frame := range frames {
		ev, err := ParseLine([]byte(frame))
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind != KindIncumbent {
			t.Fatalf("filtered stream leaked kind %q", ev.Kind)
		}
	}
	<-done
}

// TestEventsSSEHeartbeat: an idle stream still carries keepalive
// comments at the configured interval.
func TestEventsSSEHeartbeat(t *testing.T) {
	bus := NewBus(nil, nil)
	ds, err := StartDebugServer("127.0.0.1:0", nil, bus)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	resp, err := http.Get("http://" + ds.Addr() + "/events?heartbeat=20ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	deadline := time.Now().Add(5 * time.Second)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), ": keepalive") {
			return
		}
		if time.Now().After(deadline) {
			break
		}
	}
	t.Fatal("no keepalive comment on an idle stream")
}

// TestEventsSSENoBus: without a bus the endpoint answers 503 with a
// hint, not a hang.
func TestEventsSSENoBus(t *testing.T) {
	ds, err := StartDebugServer("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	resp, err := http.Get("http://" + ds.Addr() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/events without bus: status %d, want 503", resp.StatusCode)
	}
}

// TestEventsSSESubscriberCap: past maxSSESubscribers the endpoint sheds
// load with 503 instead of growing without bound.
func TestEventsSSESubscriberCap(t *testing.T) {
	bus := NewBus(nil, nil)
	ds, err := StartDebugServer("127.0.0.1:0", nil, bus)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	ds.sseActive.Store(maxSSESubscribers) // saturate without opening real streams
	resp, err := http.Get("http://" + ds.Addr() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-cap subscribe: status %d, want 503", resp.StatusCode)
	}
	ds.sseActive.Store(0)
}

// TestDebugServerCloseEndsSSE: Close must terminate an active stream
// promptly (the satellite hardening), not leave the client hanging.
func TestDebugServerCloseEndsSSE(t *testing.T) {
	bus := NewBus(nil, nil)
	ds, err := StartDebugServer("127.0.0.1:0", nil, bus)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + ds.Addr() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	readDone := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, resp.Body)
		readDone <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the stream establish
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-readDone: // EOF or reset — either means the stream ended
	case <-time.After(5 * time.Second):
		t.Fatal("SSE stream survived server Close")
	}
}
