import concurrent.futures
import queue
import threading
import time

from benchmarks.e2e import loadgen


class FakeService:
    """Answers on one thread, ``service_s`` per operation; can stall once."""

    def __init__(self, service_s=0.0, stall_at=None, stall_s=0.0, fail_on=()):
        self.service_s, self.stall_at, self.stall_s = service_s, stall_at, stall_s
        self.fail_on = set(fail_on)
        self.seen = []
        self._queue = queue.Queue()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _enqueue(self, kind, request):
        future = concurrent.futures.Future()
        self._queue.put((kind, request, future))
        return future

    def submit(self, request):
        if ("refuse", request) in self.fail_on:
            raise RuntimeError("overloaded")
        return self._enqueue("admit", request)

    def price_check(self, request):
        return self._enqueue("quote", request)

    def _loop(self):
        while True:
            kind, request, future = self._queue.get()
            if request == self.stall_at:
                time.sleep(self.stall_s)
            time.sleep(self.service_s)
            self.seen.append((kind, request))
            if ("raise", request) in self.fail_on:
                future.set_exception(ValueError("bad"))
            else:
                future.set_result(object())


def test_sends_in_order_and_counts_every_operation():
    service = FakeService()
    customers = [[("quote", n), ("admit", n)] for n in range(50)]
    phase = loadgen.replay(service, customers, rate=2000.0)
    assert service.seen == [op for ops in customers for op in ops]
    assert (phase.customers, phase.operations, phase.sent) == (50, 100, 100)
    assert (phase.answered, phase.failed) == (100, 0)
    assert len(phase.admit_ms) == len(phase.quote_ms) == 50
    assert len(phase.late_ms) == 50


def test_latency_runs_from_the_due_time_so_a_stall_taxes_everyone_behind_it():
    # 200/s for 40 customers = 0.2 s of schedule; the service stalls
    # 0.15 s on customer 10, so the ~30 customers due during the stall
    # wait for it although each is served in no time.
    service = FakeService(stall_at=10, stall_s=0.15)
    phase = loadgen.replay(service, [[("admit", n)] for n in range(40)], rate=200.0)
    slow = [ms for ms in phase.admit_ms if ms > 20.0]
    assert len(slow) >= 20
    assert max(phase.admit_ms) >= 140.0
    assert min(phase.admit_ms) < 10.0


def test_refused_and_raised_operations_fail_and_have_no_latency():
    service = FakeService(fail_on={("refuse", 3), ("raise", 5)})
    phase = loadgen.replay(service, [[("admit", n)] for n in range(8)], rate=0.0)
    assert (phase.operations, phase.sent, phase.answered, phase.failed) == (8, 7, 6, 2)
    assert len(phase.admit_ms) == 6
    assert phase.late_ms == []          # unpaced: there is no schedule to be late on


def test_backlog_growth_is_judged_against_one_tick_of_arrivals():
    phase = loadgen.Phase(rate=400.0, customers=1000, operations=1000, sent=1000,
                          depth_half=5, depth_end=90)
    assert not phase.backlog_grew(0.25)     # 100 may wait behind one tick
    phase.depth_end = 120
    assert phase.backlog_grew(0.25)


def test_a_dead_service_does_not_hang_the_generator(monkeypatch):
    class Dead:
        def submit(self, request):
            return concurrent.futures.Future()      # never completes

    monkeypatch.setattr(loadgen, "ANSWER_TIMEOUT_S", 0.05)
    began = time.perf_counter()
    phase = loadgen.replay(Dead(), [[("admit", 0)], [("admit", 1)]], rate=0.0)
    assert time.perf_counter() - began < 5.0
    assert (phase.answered, phase.failed) == (0, 2)
