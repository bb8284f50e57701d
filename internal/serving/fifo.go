package serving

// fifo is a first-in first-out queue on a ring buffer. The ring doubles when
// full and is kept when it drains, so a queue that has held n items pushes
// and pops again without allocating, and a pop costs the same at any depth.
// The zero fifo is empty and ready to use.
type fifo[T any] struct {
	ring []T // len is zero or a power of two
	head int // index of the oldest item
	n    int // items held
}

// len returns the number of items held.
func (q *fifo[T]) len() int { return q.n }

// at returns the i-th oldest item, 0 ≤ i < q.len().
func (q *fifo[T]) at(i int) T { return q.ring[(q.head+i)&(len(q.ring)-1)] }

// push appends v at the tail.
func (q *fifo[T]) push(v T) {
	if q.n == len(q.ring) {
		q.grow()
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = v
	q.n++
}

// pop removes and returns the oldest item; the queue must not be empty. The
// vacated slot is zeroed so the ring holds no reference to a popped item.
func (q *fifo[T]) pop() T {
	var zero T
	v := q.ring[q.head]
	q.ring[q.head] = zero
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	return v
}

// grow doubles the ring, moving the items to its front in order.
func (q *fifo[T]) grow() {
	size := 2 * len(q.ring)
	if size == 0 {
		size = 4
	}
	ring := make([]T, size)
	for i := 0; i < q.n; i++ {
		ring[i] = q.at(i)
	}
	q.ring, q.head = ring, 0
}
