"""Fixture procs coordinator: ``step`` dispatches through ``self``."""


class ProcsCoordinator:
    def __init__(self):
        self._conns = []

    def _broadcast(self, msg):
        for conn in self._conns:
            conn.send(msg)

    def step(self, t):
        self._broadcast(("sample", t))
        self._broadcast(("alloc", t))
