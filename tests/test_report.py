import io

from gammatri.report import Report


class TtyStream(io.StringIO):
    def isatty(self):
        return True


def render(stream) -> str:
    rep = Report("demo")
    rep.add("good", True)
    rep.add("bad", False, "residual x")
    rep.render(stream)
    return stream.getvalue()


def test_tty_gets_ansi_tags(monkeypatch):
    monkeypatch.delenv("NO_COLOR", raising=False)
    text = render(TtyStream())
    assert "  \x1b[32m[PASS]\x1b[0m good\n" in text
    assert "  \x1b[31m[FAIL]\x1b[0m bad  (residual x)\n" in text


def test_no_color_turns_ansi_tags_off(monkeypatch):
    monkeypatch.setenv("NO_COLOR", "1")
    text = render(TtyStream())
    assert "\x1b" not in text
    assert "  [PASS] good\n" in text and "  [FAIL] bad  (residual x)\n" in text


def test_non_tty_gets_plain_tags(monkeypatch):
    monkeypatch.delenv("NO_COLOR", raising=False)
    assert render(io.StringIO()) == (
        "suite: demo\n"
        "  [PASS] good\n"
        "  [FAIL] bad  (residual x)\n"
        "summary: 1/2 passed\n")
