package modelcheck

// Sleep sets (Godefroid, Partial-Order Methods for the Verification of
// Concurrent Systems, 1996): the search skips an action at a state when
// the state's first discoverer already explored it, or inherited it
// asleep, and it commutes with the action that led here. Its successor is
// then a state the search has already visited, so the set of visited
// states, their depths and the order they are found in are exactly those
// of the search without it; only transitions that lead back into the
// visited set are saved. DESIGN.md, "Sleep sets", gives the argument.
//
// Two things make that hold here:
//
//   - An action is named by what it does, not by where its item sits in a
//     queue. Queues are multisets in the state key, so paths that reach
//     one state may order a link's items differently, and Action.Index
//     cannot be compared across them.
//   - A sleep set is inherited from the state's first discoverer only:
//     the parent its trace goes through.

// actionID names an action by content: its kind, the link it names, the
// node whose code it runs and, for an action on a pending item, a 48-bit
// hash of the item's encoding (for an originate, the flow index). Two
// enabled actions with one ID lead to one state.
//
//	bits 60–63 kind · 54–59 link+1 (0: none) · 48–53 actor+1 (0: none) · 0–47 item hash or flow
//
// The item hash is the first word of the hash the item was queued with.
type actionID uint64

const idLow = 1<<48 - 1

func newActionID(kind ActionKind, link, actor int, low uint64) actionID {
	return actionID(uint64(kind)<<60 | uint64(link+1)<<54 | uint64(actor+1)<<48 | low&idLow)
}

func (id actionID) kind() ActionKind { return ActionKind(id >> 60) }
func (id actionID) link() uint64     { return uint64(id>>54) & 63 }
func (id actionID) actor() uint64    { return uint64(id>>48) & 63 }

// independent reports whether two actions commute wherever both are
// enabled, leaving each other enabled. They do not when they are of one
// kind other than deliver (drops, dups and each reset kind share a
// budget; flows are originated in order), when one node's code runs in
// both, or when both name one link. Anything else touches disjoint state
// (TestActionTouchesOneNode): a node's sends append to its out-links,
// which commutes with taking an item off one under multiset identity.
// TestIndependentActionsCommute checks the claim on random walks.
func independent(a, b actionID) bool {
	if a.kind() == b.kind() && a.kind() != ActDeliver {
		return false
	}
	if l := a.link(); l != 0 && l == b.link() {
		return false
	}
	if n := a.actor(); n != 0 && n == b.actor() {
		return false
	}
	return true
}

// id names action a, enabled in the world's present state.
func (c *cursor) id(a Action) actionID {
	w := c.w
	switch a.Kind {
	case ActDeliver, ActDrop, ActDup:
		li := int(a.From)*w.sc.Graph.N + int(a.To)
		actor := -1
		if a.Kind == ActDeliver {
			actor = int(a.To)
		}
		return newActionID(a.Kind, li, actor, w.pending[li][a.Index].hash[0])
	case ActReset, ActResetVolatile:
		return newActionID(a.Kind, -1, int(a.Node), 0)
	case ActOriginate:
		return newActionID(a.Kind, -1, int(w.sc.Flows[a.Flow].Src), uint64(a.Flow))
	}
	panic("modelcheck: no identity for " + a.String())
}

// sleepLayer holds the sleep sets of one breadth-first layer's states, from
// their discovery to their expansion, in discovery order: the k-th state's
// set is ids[end[k-1]:end[k]]. Two layers are live at a time, the one
// being expanded and the one being discovered; the arena is the queue
// order again, so no per-state index is kept. A layer whose states will
// not be expanded holds no sets, and each of its states' is empty.
type sleepLayer struct {
	first int32 // arena index of the layer's first state
	ids   []actionID
	end   []int32
}

// reset empties the layer for the states from arena index first on.
func (l *sleepLayer) reset(first int32) {
	l.first, l.ids, l.end = first, l.ids[:0], l.end[:0]
}

// of is the sleep set of the state at arena index idx.
func (l *sleepLayer) of(idx int32) []actionID {
	k := idx - l.first
	if int(k) >= len(l.end) {
		return nil
	}
	lo := int32(0)
	if k > 0 {
		lo = l.end[k-1]
	}
	return l.ids[lo:l.end[k]]
}

// add appends the sleep set of the state the action named a leads to, from
// a parent whose own set was sleep and which explored before a the
// actions named in before: every one of them that commutes with a.
func (l *sleepLayer) add(sleep, before []actionID, a actionID) {
	for _, set := range [2][]actionID{sleep, before} {
		for _, b := range set {
			if independent(a, b) {
				l.ids = append(l.ids, b)
			}
		}
	}
	l.end = append(l.end, int32(len(l.ids)))
}
