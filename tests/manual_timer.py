"""A hand-fired stand-in for :class:`repro.sim.actor.Timer`.

The instance cores take their timers through a ``make_timer(name, callback)``
seam; the manual harnesses hand out these so a timer expires only when the
test says so.
"""


class ManualTimer:
    """``start`` / ``cancel`` / ``running`` like the real timer, plus ``fire``."""

    def __init__(self, name, callback):
        self.name = name
        self.callback = callback
        self.interval = None
        self.running = False
        self.starts = 0

    def start(self, interval):
        self.interval = interval
        self.running = True
        self.starts += 1

    def cancel(self):
        self.running = False

    def fire(self):
        """Expire the timer if it is armed."""
        if self.running:
            self.running = False
            self.callback()


class TimerBoard:
    """Collects the timers one harness hands out."""

    def __init__(self):
        self.timers = []

    def make_timer(self, name, callback):
        timer = ManualTimer(name, callback)
        self.timers.append(timer)
        return timer

    def running(self, kind=""):
        """Armed timers whose name contains ``kind``."""
        return [t for t in self.timers if t.running and kind in t.name]

    def fire_running(self):
        """Expire every timer armed right now — not ones the expiries re-arm."""
        for timer, armed in [(t, t.starts) for t in self.running()]:
            if timer.starts == armed:
                timer.fire()
