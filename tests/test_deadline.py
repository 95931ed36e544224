"""The test helper ``deadline`` reports the block it stopped."""

import pytest

from conftest import DeadlineExceeded, deadline


def spin():
    while True:
        pass


def test_deadline_names_the_interrupted_function_with_line_numbers():
    with pytest.raises(DeadlineExceeded, match=r"^spin still running after 0\.2 s$") as exc:
        with deadline(0.2):
            spin()
    tb = exc.value.__traceback__
    while tb is not None:
        assert tb.tb_lineno is not None, tb.tb_frame.f_code.co_name
        tb = tb.tb_next
