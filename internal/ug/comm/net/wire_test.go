package netcomm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/ug/comm"
)

// sampleMessages covers the codec corners: empty and large payloads,
// negative From (synthesized termination), and every protocol tag.
func sampleMessages() []comm.Message {
	msgs := []comm.Message{
		{From: 0, Tag: comm.TagSubproblem},
		{From: -1, Tag: comm.TagTermination},
		{From: 3, Tag: comm.TagSolution, Payload: []byte{0, 1, 2, 254, 255}},
		{From: 1, Tag: comm.TagNode, Payload: bytes.Repeat([]byte("abc"), 5000)},
	}
	for t := comm.TagSubproblem; t <= comm.TagPeerDown; t++ {
		msgs = append(msgs, comm.Message{From: int(t) + 1, Tag: t, Payload: []byte{byte(t)}})
	}
	return msgs
}

func TestMessageRoundTrip(t *testing.T) {
	for i, want := range sampleMessages() {
		wantClock := int64(i * 1000003) // varied clocks, including 0
		body := AppendMessage(nil, want, wantClock)
		got, clock, err := DecodeMessage(body)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if got.From != want.From || got.Tag != want.Tag || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
		if clock != wantClock {
			t.Fatalf("round trip clock: got %d want %d", clock, wantClock)
		}
	}
}

func TestMessageBytesDeterministic(t *testing.T) {
	m := comm.Message{From: 2, Tag: comm.TagStatus, Payload: []byte("hi")}
	want := []byte{
		0, 0, 0, 2, // From, int32 BE
		byte(comm.TagStatus),   // Tag
		0, 0, 0, 0, 0, 0, 1, 1, // Lamport clock, uint64 BE
		0, 0, 0, 2, // payload length, uint32 BE
		'h', 'i',
	}
	got := AppendMessage(nil, m, 257)
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding changed: got % x want % x", got, want)
	}
	if again := AppendMessage(nil, m, 257); !bytes.Equal(got, again) {
		t.Fatalf("non-deterministic encoding: % x vs % x", got, again)
	}
}

func TestDecodeMessageRejectsCorrupt(t *testing.T) {
	if _, _, err := DecodeMessage([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated body accepted")
	}
	body := AppendMessage(nil, comm.Message{From: 1, Tag: comm.TagNode, Payload: []byte("xyz")}, 42)
	if _, _, err := DecodeMessage(body[:len(body)-1]); err == nil {
		t.Fatal("short payload accepted")
	}
	if _, _, err := DecodeMessage(append(body, 'z')); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestHandshakeCodecs(t *testing.T) {
	rank, ver, err := decodeHello(appendHello(nil, 7))
	if err != nil || rank != 7 || ver != ProtocolVersion {
		t.Fatalf("hello round trip: rank %d ver %d err %v", rank, ver, err)
	}
	bad := appendHello(nil, 7)
	bad[0] ^= 0xff
	if _, _, err := decodeHello(bad); err == nil {
		t.Fatal("corrupt magic accepted")
	}
	size, err := decodeWelcome(appendWelcome(nil, 12))
	if err != nil || size != 12 {
		t.Fatalf("welcome round trip: size %d err %v", size, err)
	}
	reason, err := decodeReject(appendReject(nil, "rank 1 already joined"))
	if err != nil || reason != "rank 1 already joined" {
		t.Fatalf("reject round trip: %q err %v", reason, err)
	}
}

func TestFrameReadWrite(t *testing.T) {
	var buf bytes.Buffer
	// The last body outgrows a fresh buffer's first frameStep.
	bodies := [][]byte{nil, {1}, bytes.Repeat([]byte{7}, 1000), bytes.Repeat([]byte{1, 2, 3}, frameStep+5)}
	for i, b := range bodies {
		if err := writeFrame(&buf, byte(i), b); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	for i, want := range bodies {
		ft, body, err := readFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		if int(ft) != i || !bytes.Equal(body, want) {
			t.Fatalf("frame %d: type %d body %d bytes", i, ft, len(body))
		}
	}
	// A hostile length prefix must be rejected before allocation.
	huge := []byte{0xff, 0xff, 0xff, 0xff, frameData}
	if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(huge))); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// A length prefix at the limit over a two-byte body is a truncated
// frame, and reading it costs what arrived, not the claimed 64 MiB.
func TestTruncatedFrameAllocatesWhatArrives(t *testing.T) {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], maxFrameBody)
	stream := append(hdr[:], 'a', 'b')
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := readFrameInto(bufio.NewReader(bytes.NewReader(stream)), nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated frame accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("reading a truncated frame allocated %d bytes", grew)
	}
}

func TestFaultPlanMatching(t *testing.T) {
	plan := NewFaultPlan(
		FaultRule{Tag: comm.TagStatus, Nth: 2, Action: FaultDrop},
		FaultRule{Tag: comm.TagNode, Nth: 1, Action: FaultDisconnect},
	)
	var hits []FaultAction
	for i := 0; i < 3; i++ {
		if r, ok := plan.match(comm.TagStatus); ok {
			hits = append(hits, r.Action)
		}
	}
	if !reflect.DeepEqual(hits, []FaultAction{FaultDrop}) {
		t.Fatalf("status matches: %v", hits)
	}
	if r, ok := plan.match(comm.TagNode); !ok || r.Action != FaultDisconnect {
		t.Fatalf("node match: %+v %v", r, ok)
	}
	if _, ok := plan.match(comm.TagSolution); ok {
		t.Fatal("unruled tag matched")
	}
	var nilPlan *FaultPlan
	if _, ok := nilPlan.match(comm.TagStatus); ok {
		t.Fatal("nil plan matched")
	}
}
