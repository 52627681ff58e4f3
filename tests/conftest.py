import pytest

from eigencone import faces
from eigencone.rootdata import ParabolicSpec, build_root_system
from eigencone.weyl import parse_word


@pytest.fixture(scope="session")
def d4():
    return build_root_system("D4")


@pytest.fixture(scope="session")
def p2(d4):
    return ParabolicSpec.maximal(d4, 2)


@pytest.fixture(scope="session")
def p4(d4):
    return ParabolicSpec.maximal(d4, 4)


@pytest.fixture(scope="session")
def uvw(d4):
    return (
        parse_word(d4, "s4 s3 s1 s2"),
        parse_word(d4, "s3 s1 s2 s4 s3 s1 s2"),
        parse_word(d4, "s1 s2 s4 s2 s3 s1 s2"),
    )


@pytest.fixture(scope="session")
def main_face(d4, p2, uvw):
    return faces.FaceSpec(3, p2, uvw)
