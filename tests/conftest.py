import pytest

from tilepipe.distribution import wire


@pytest.fixture
def sent_blocks(monkeypatch):
    """The block each EVAL_REQUEST the client sends names (None: payload)."""
    sent = []
    real = wire.send_message

    def send_message(sock, header, payload=b""):
        if header.get("type") == "EVAL_REQUEST":
            sent.append(header.get("shm"))
        return real(sock, header, payload)

    monkeypatch.setattr(wire, "send_message", send_message)
    return sent
