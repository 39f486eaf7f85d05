package pbft

import (
	"fmt"
	"testing"

	"zugchain/internal/crypto"
)

// TestNewViewFillsGapsWithNullRequests: requests at seqs 1 and 3 reach
// prepared, seq 2 does not (its preprepare is censored towards everyone but
// one replica never prepares it fully). After the view change, seq 3's
// request must survive and seq 2 is filled with a null request that is
// never delivered.
func TestNewViewFillsGapsWithNullRequests(t *testing.T) {
	c := newCluster(t, 4, nil)

	// Block commits entirely so nothing executes, and drop the preprepare
	// and prepares for seq 2 so only seqs 1 and 3 reach prepared.
	c.filter = func(p packet) bool {
		msg, err := unmarshalPacket(p)
		if err != nil {
			return true
		}
		switch m := msg.(type) {
		case *Commit:
			return false
		case *PrePrepare:
			return m.Seq != 2
		case *Prepare:
			return m.Seq != 2
		}
		return true
	}
	c.propose(0, "one")
	c.propose(0, "two") // never prepared anywhere
	c.propose(0, "three")
	c.run()
	for _, id := range c.ids {
		if len(c.delivered[id]) != 0 {
			t.Fatalf("replica %v delivered before view change", id)
		}
	}

	c.filter = nil
	c.suspect(1, 2, 3)
	c.run()

	c.assertAgreement()
	for _, id := range c.ids {
		got := c.delivered[id]
		if len(got) != 2 {
			t.Fatalf("replica %v delivered %d requests, want 2 (null at seq 2 skipped)", id, len(got))
		}
		if string(got[0].Req.Payload) != "one" || got[0].Seq != 1 {
			t.Errorf("replica %v first = %q@%d", id, got[0].Req.Payload, got[0].Seq)
		}
		if string(got[1].Req.Payload) != "three" || got[1].Seq != 3 {
			t.Errorf("replica %v second = %q@%d", id, got[1].Req.Payload, got[1].Seq)
		}
	}
}

// TestViewChangeAdoptsNewerStableCheckpoint: a replica that missed a whole
// checkpoint learns it from the view-change quorum and state-transfers.
func TestViewChangeAdoptsNewerStableCheckpoint(t *testing.T) {
	c := newCluster(t, 4, nil)
	// r3 misses everything while 10 requests are ordered and checkpointed
	// by the other three.
	c.filter = func(p packet) bool { return p.to != 3 }
	for i := 0; i < 10; i++ {
		c.propose(0, fmt.Sprintf("r%d", i))
	}
	c.run()
	if c.engines[3].lowWater != 0 {
		t.Fatalf("r3 low water = %d before view change", c.engines[3].lowWater)
	}

	// Heal and change the view: the quorum's view changes carry the
	// stable checkpoint at seq 10, which r3 must adopt.
	c.filter = nil
	c.suspect(1, 2, 3)
	c.run()

	e3 := c.engines[3]
	if e3.View() != 1 {
		t.Fatalf("r3 view = %d", e3.View())
	}
	if e3.lowWater != 10 {
		t.Errorf("r3 low water = %d, want 10 (adopted from view change)", e3.lowWater)
	}
	if len(c.transfers[3]) == 0 {
		t.Error("r3 did not request a state transfer for the missed blocks")
	}
	// Ordering continues for everyone in the new view.
	c.propose(1, "fresh")
	c.run()
	last := c.delivered[3][len(c.delivered[3])-1]
	if string(last.Req.Payload) != "fresh" {
		t.Errorf("r3 last delivery = %q", last.Req.Payload)
	}
	c.assertAgreement()
}

// TestViewChangeChainsAcrossMultipleViews: two consecutive primary failures.
func TestViewChangeChainsAcrossMultipleViews(t *testing.T) {
	c := newCluster(t, 4, nil)
	c.propose(0, "v0")
	c.run()

	c.suspect(1, 2, 3) // view 1, primary r1
	c.run()
	c.propose(1, "v1")
	c.run()

	c.suspect(0, 2, 3) // view 2, primary r2
	c.run()
	c.propose(2, "v2")
	c.run()

	c.assertAllDelivered("v0", "v1", "v2")
	c.assertAgreement()
	for _, id := range c.ids {
		if got := c.engines[id].View(); got != 2 {
			t.Errorf("replica %v view = %d", id, got)
		}
	}
}

// TestStaleViewChangeIgnored: a view change for an already-installed view
// must not disturb the engine.
func TestStaleViewChangeIgnored(t *testing.T) {
	c := newCluster(t, 4, nil)
	c.suspect(1, 2, 3)
	c.run()
	if c.engines[0].View() != 1 {
		t.Fatal("setup: view change did not complete")
	}

	vc := &ViewChange{NewView: 1, Replica: 3}
	sign(vc, c.kps[3])
	c.handle(0, c.engines[0].Receive(3, vc))
	c.run()
	if got := c.engines[0].View(); got != 1 {
		t.Errorf("view = %d after stale view change", got)
	}
}

// TestForgedNewViewRejected: a non-primary cannot install a view, and a
// primary cannot smuggle an unprepared request into the new view.
func TestForgedNewViewRejected(t *testing.T) {
	c := newCluster(t, 4, nil)

	t.Run("wrong sender", func(t *testing.T) {
		nv := &NewView{View: 1, Replica: 2} // primary of view 1 is r1
		sign(nv, c.kps[2])
		c.handle(0, c.engines[0].Receive(2, nv))
		c.run()
		if c.engines[0].View() != 0 {
			t.Error("non-primary installed a view")
		}
	})

	t.Run("insufficient quorum", func(t *testing.T) {
		vc := &ViewChange{NewView: 1, Replica: 1}
		sign(vc, c.kps[1])
		nv := &NewView{View: 1, ViewChanges: []ViewChange{*vc}, Replica: 1}
		sign(nv, c.kps[1])
		c.handle(0, c.engines[0].Receive(1, nv))
		c.run()
		if c.engines[0].View() != 0 {
			t.Error("new view with 1 view change accepted")
		}
	})

	t.Run("invented request", func(t *testing.T) {
		// Three legitimate view changes with empty P sets...
		var vcs []ViewChange
		for _, id := range []crypto.NodeID{1, 2, 3} {
			vc := ViewChange{NewView: 1, Replica: id}
			sign(&vc, c.kps[id])
			vcs = append(vcs, vc)
		}
		// ... but the new primary invents a preprepare for seq 1.
		forged := Request{Payload: []byte("invented")}
		SignRequest(&forged, c.kps[1])
		pp := PrePrepare{View: 1, Seq: 1, Req: forged, Replica: 1}
		sign(&pp, c.kps[1])
		nv := &NewView{View: 1, ViewChanges: vcs, PrePrepares: []PrePrepare{pp}, Replica: 1}
		sign(nv, c.kps[1])
		c.handle(0, c.engines[0].Receive(1, nv))
		c.run()
		if c.engines[0].View() != 0 {
			t.Error("new view with invented request accepted")
		}
	})
}

// TestDuplicateSuspectIsIdempotent: calling Suspect repeatedly while a view
// change is already underway must not escalate views.
func TestDuplicateSuspectIsIdempotent(t *testing.T) {
	c := newCluster(t, 4, nil)
	c.filter = func(p packet) bool { return false } // isolate everyone
	for i := 0; i < 5; i++ {
		c.handle(1, c.engines[1].Suspect(0))
	}
	c.run()
	if got := c.engines[1].sentVCFor; got != 1 {
		t.Errorf("sentVCFor = %d after repeated suspects, want 1", got)
	}
}

// TestPreparedProofValidation exercises validatePreparedProof's rejections.
func TestPreparedProofValidation(t *testing.T) {
	c := newCluster(t, 4, nil)
	e := c.engines[0]

	req := Request{Payload: []byte("p")}
	SignRequest(&req, c.kps[0])
	pp := PrePrepare{View: 0, Seq: 1, Req: req, Replica: 0}
	sign(&pp, c.kps[0])
	mkPrepare := func(id crypto.NodeID, digest crypto.Digest) Prepare {
		p := Prepare{View: 0, Seq: 1, Digest: digest, Replica: id}
		sign(&p, c.kps[id])
		return p
	}

	valid := PreparedProof{PrePrepare: pp,
		Prepares: []Prepare{mkPrepare(1, req.Digest()), mkPrepare(2, req.Digest())}}
	if err := e.validatePreparedProof(&valid, 1); err != nil {
		t.Errorf("valid proof rejected: %v", err)
	}

	tests := []struct {
		name  string
		proof PreparedProof
		view  uint64
	}{
		{"view not before new view", valid, 0},
		{"too few prepares", PreparedProof{PrePrepare: pp,
			Prepares: []Prepare{mkPrepare(1, req.Digest())}}, 1},
		{"mismatched digest", PreparedProof{PrePrepare: pp,
			Prepares: []Prepare{mkPrepare(1, crypto.Hash([]byte("x"))), mkPrepare(2, req.Digest())}}, 1},
		{"duplicate prepare signer", PreparedProof{PrePrepare: pp,
			Prepares: []Prepare{mkPrepare(1, req.Digest()), mkPrepare(1, req.Digest())}}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := e.validatePreparedProof(&tt.proof, tt.view); err == nil {
				t.Error("want error")
			}
		})
	}
}

// TestPreparedCertsSurviveViewChange: a request commits and executes in view
// 0, then two view changes follow back to back — the second before any slot
// re-prepares in view 1 (its prepares are censored). The NewView for view 2
// must still carry the request from the view-0 certificate instead of
// nulling a slot the quorum already executed; losing it would let a replica
// that missed view 0 execute a null there and fork its chain.
func TestPreparedCertsSurviveViewChange(t *testing.T) {
	c := newCluster(t, 4, nil)
	c.propose(0, "durable")
	c.run()
	c.assertAllDelivered("durable")

	// View change to 1, with every view-1 prepare dropped so seq 1 never
	// re-prepares there: the only evidence for it is the view-0 cert.
	c.filter = func(p packet) bool {
		msg, err := unmarshalPacket(p)
		if err != nil {
			return true
		}
		if prep, ok := msg.(*Prepare); ok && prep.View == 1 {
			return false
		}
		return true
	}
	c.suspect(1, 2, 3)
	c.run()
	if c.engines[0].View() != 1 {
		t.Fatal("setup: first view change did not complete")
	}

	// Second view change. Its NewView must re-issue seq 1 with the
	// original request, not a null.
	c.filter = nil
	c.suspect(0, 2, 3)
	c.run()
	for _, id := range c.ids {
		e := c.engines[id]
		if e.View() != 2 {
			t.Fatalf("replica %v view = %d, want 2", id, e.View())
		}
		nv := e.lastNewView
		if nv == nil {
			t.Fatalf("replica %v has no NewView certificate", id)
		}
		found := false
		for i := range nv.PrePrepares {
			pp := &nv.PrePrepares[i]
			if pp.Seq == 1 {
				found = true
				if pp.Req.IsNull() {
					t.Errorf("replica %v: NewView(2) nulled executed seq 1", id)
				} else if string(pp.Req.Payload) != "durable" {
					t.Errorf("replica %v: NewView(2) carries %q at seq 1", id, pp.Req.Payload)
				}
			}
		}
		if !found {
			t.Errorf("replica %v: NewView(2) omits seq 1", id)
		}
	}
}

// TestNoReentryBelowPromisedView: a replica that escalated its view change
// to view 2 has promised that its P set is final for every lower view; it
// must refuse a NewView for view 1, or requests it prepares after re-entry
// would be missing from the stale promise a later NewView may be built on.
func TestNoReentryBelowPromisedView(t *testing.T) {
	c := newCluster(t, 4, nil)

	// r3 sees nothing while the others change to view 1.
	c.filter = func(p packet) bool { return p.to != 3 }
	c.suspect(1, 2)
	c.handle(0, c.engines[0].Suspect(c.engines[0].Primary()))
	c.run()
	if c.engines[1].View() != 1 {
		t.Fatal("setup: view 1 did not form among r0-r2")
	}

	// r3 independently suspects the primary and escalates past view 1.
	c.handle(3, c.engines[3].Suspect(c.engines[3].Primary()))
	c.fireViewTimer(3)
	if got := c.engines[3].sentVCFor; got != 2 {
		t.Fatalf("setup: r3 escalated to %d, want 2", got)
	}

	// The view-1 certificate arrives late: r3 must not re-enter view 1.
	c.filter = nil
	nv := c.engines[1].lastNewView
	if nv == nil || nv.View != 1 {
		t.Fatal("setup: r1 holds no NewView for view 1")
	}
	c.handle(3, c.engines[3].Receive(1, nv))
	c.run()
	if got := c.engines[3].View(); got >= 1 && got < 2 {
		t.Errorf("r3 entered view %d below its promised view 2", got)
	}
	if !c.engines[3].inViewChange && c.engines[3].View() < 2 {
		t.Errorf("r3 left the view change without reaching its promised view")
	}
}

// TestPhaseMessagesBeforeNewViewAreKept: a backup still finishing the view
// change receives the new primary's preprepare, and the peers' prepares and
// commits, before the NewView that installs the view — inbound signature
// checks complete in any order. Those messages must be replayed once the
// view is installed; with the old primary silent, the slot cannot commit
// without the late backup's votes.
func TestPhaseMessagesBeforeNewViewAreKept(t *testing.T) {
	c := newCluster(t, 4, nil)
	var held []packet
	release := false
	c.filter = func(p packet) bool {
		if p.from == 0 || p.to == 0 {
			return false // the old primary is cut off
		}
		msg, err := unmarshalPacket(p)
		if err != nil {
			return true
		}
		if _, ok := msg.(*NewView); ok && p.to == 3 && !release {
			held = append(held, p)
			return false
		}
		return true
	}
	c.suspect(1, 2, 3)
	c.run()
	if len(held) == 0 {
		t.Fatal("setup: no NewView sent to r3")
	}
	if c.engines[3].View() != 0 {
		t.Fatal("setup: r3 installed view 1 without the NewView")
	}

	c.propose(1, "censored")
	c.run()
	if got := len(c.delivered[1]); got != 0 {
		t.Fatalf("setup: r1 delivered %d requests without r3's commit", got)
	}

	release = true
	c.queue = append(c.queue, held...)
	c.run()
	for _, id := range []crypto.NodeID{1, 2, 3} {
		got := c.delivered[id]
		if len(got) != 1 || string(got[0].Req.Payload) != "censored" {
			t.Fatalf("replica %v delivered %v, want the censored request", id, got)
		}
	}
	c.assertAgreement()
}

// TestFutureViewBufferIsBounded: a Byzantine replica announcing phase
// messages for a far-future view fills only its own share of the buffer.
func TestFutureViewBufferIsBounded(t *testing.T) {
	c := newCluster(t, 4, nil)
	e := c.engines[0]
	window := e.cfg.WatermarkWindow
	for i := uint64(0); i < 10*window; i++ {
		p := &Prepare{View: 1000, Seq: 1 + i%window, Replica: 3}
		sign(p, c.kps[3])
		e.Receive(3, p)
	}
	if got := uint64(len(e.future)); got != 3*window {
		t.Errorf("buffered %d future messages from one sender, want cap %d", got, 3*window)
	}
	// An out-of-watermark slot is not buffered at all.
	p := &Prepare{View: 1, Seq: window + 1, Replica: 2}
	sign(p, c.kps[2])
	e.Receive(2, p)
	if e.futureBySender[2] != 0 {
		t.Error("buffered a future message outside the watermarks")
	}
}
