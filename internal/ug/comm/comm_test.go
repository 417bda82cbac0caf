package comm

import (
	"sync"
	"testing"
)

func testComm(t *testing.T, c Comm) {
	t.Helper()
	// Order from a single sender is preserved.
	for i := 0; i < 10; i++ {
		c.Send(1, Message{From: 0, Tag: TagStatus, Payload: []byte{byte(i)}})
	}
	for i := 0; i < 10; i++ {
		m := c.Recv(1)
		if m.Payload[0] != byte(i) {
			t.Fatalf("order violated: got %d want %d", m.Payload[0], i)
		}
		if m.From != 0 || m.Tag != TagStatus {
			t.Fatalf("metadata lost: %+v", m)
		}
	}
	// TryRecv on empty box.
	if _, ok := c.TryRecv(1); ok {
		t.Fatal("TryRecv on empty mailbox returned a message")
	}
	c.Send(1, Message{From: 0, Tag: TagStop})
	if m, ok := c.TryRecv(1); !ok || m.Tag != TagStop {
		t.Fatalf("TryRecv failed: %+v ok=%v", m, ok)
	}
}

func TestChannelComm(t *testing.T) { testComm(t, NewChannelComm(2)) }

func TestConcurrentSenders(t *testing.T) {
	c := NewChannelComm(4)
	var wg sync.WaitGroup
	const per = 200
	for s := 1; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Send(0, Message{From: s, Tag: TagNode, Payload: []byte{byte(i)}})
			}
		}(s)
	}
	counts := map[int]int{}
	for i := 0; i < 3*per; i++ {
		m := c.Recv(0)
		counts[m.From]++
	}
	wg.Wait()
	for s := 1; s < 4; s++ {
		if counts[s] != per {
			t.Fatalf("sender %d delivered %d messages, want %d", s, counts[s], per)
		}
	}
}

func TestBlockingRecv(t *testing.T) {
	c := NewChannelComm(2)
	done := make(chan Message, 1)
	go func() { done <- c.Recv(1) }()
	c.Send(1, Message{From: 0, Tag: TagTermination})
	m := <-done
	if m.Tag != TagTermination {
		t.Fatalf("got %+v", m)
	}
}

func TestTagStrings(t *testing.T) {
	if TagSubproblem.String() != "subproblem" || TagTermination.String() != "termination" {
		t.Fatal("tag names wrong")
	}
	if Tag(99).String() == "" {
		t.Fatal("unknown tag should still format")
	}
}
