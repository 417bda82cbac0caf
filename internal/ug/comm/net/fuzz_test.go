package netcomm

import (
	"bufio"
	"bytes"
	"testing"
)

// FuzzDecodeMessage: DecodeMessage never panics on a data frame body,
// and a body it accepts is exactly the encoding of what it returned, so
// AppendMessage reproduces it byte for byte. The checked-in seeds under
// testdata/fuzz/FuzzDecodeMessage are the codec's corners: a header one
// byte short, a payload length past the body, a negative sender, an
// empty payload.
func FuzzDecodeMessage(f *testing.F) {
	for i, m := range sampleMessages() {
		f.Add(AppendMessage(nil, m, int64(i)*1000003))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		m, clock, err := DecodeMessage(body)
		if err != nil {
			return
		}
		if again := AppendMessage(nil, m, clock); !bytes.Equal(again, body) {
			t.Fatalf("accepted % x, re-encodes as % x", body, again)
		}
	})
}

// FuzzReadFrame reads frames off a byte stream with readFrameInto,
// reusing one buffer the way a peer's receive loop does, until the
// stream fails. It never panics and never returns a body over
// maxFrameBody, and the frames it returns, written back with
// writeFrame, are the stream's bytes up to the failure. The seeds under
// testdata/fuzz/FuzzReadFrame are a header cut short, a body cut short
// and a length prefix one byte over the limit.
func FuzzReadFrame(f *testing.F) {
	var stream bytes.Buffer
	for _, m := range sampleMessages()[:3] {
		if err := writeFrame(&stream, frameData, AppendMessage(nil, m, 7)); err != nil {
			f.Fatal(err)
		}
	}
	for _, ft := range []byte{frameHeartbeat, frameGoodbye} {
		if err := writeFrame(&stream, ft, nil); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(stream.Bytes())
	f.Add(appendHello(nil, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		var back bytes.Buffer
		for {
			ft, body, next, err := readFrameInto(r, buf)
			if err != nil {
				break
			}
			if len(body) > maxFrameBody {
				t.Fatalf("body of %d bytes over the %d-byte limit", len(body), maxFrameBody)
			}
			if err := writeFrame(&back, ft, body); err != nil {
				t.Fatal(err)
			}
			buf = next
		}
		if !bytes.HasPrefix(data, back.Bytes()) {
			t.Fatalf("frames read from % x write back as % x", data, back.Bytes())
		}
	})
}
